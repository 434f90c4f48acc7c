"""Steadiness check: run workloads on several seeds and report spreads.

    python3 perfbench/steady.py --workloads iterate-256 --seeds 1 2 3 4 5
    python3 perfbench/steady.py --seeds 1 2 3 4 5 6 7 8 9 10 --json out.json

Runs ``run.py`` once per (workload, seed), one process at a time, with
the ``run_seconds`` of ``BENCHMARK.json``.  For each end-to-end metric
it prints the median of the runs and the distance between their first
and third quartiles (``statistics.quantiles(values, n=4)``) as a share
of the median, next to a third of the metric's bound; then the same
for the raw wall-clock figures, which have no bound.  Runs that share
a seed must report identical modeled figures (cycles, exchanges, fault
counts, modeled Gflops); a seed may be listed more than once.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode}:\n"
            f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    modeled = next(line for line in lines if line.startswith("modeled "))
    result["modeled"] = json.loads(modeled.split(" ", 1)[1])
    result["wall"] = {
        name: float(value)
        for _, name, value, _ in (
            line.split() for line in lines if line.startswith("wall ")
        )
    }
    return result


def spreads(results, bounds, key="metrics"):
    rows = {}
    for name, bound in bounds.items():
        values = [r[key][name] for r in results]
        if key == "metrics":
            values = [value["value"] for value in values]
        q1, _, q3 = statistics.quantiles(values, n=4)
        rows[name] = {
            "median": statistics.median(values),
            "spread": (q3 - q1) / statistics.median(values),
            "limit": bound / 3 if bound else None,
            "values": values,
        }
    return rows


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workloads", nargs="+",
        default=[w["name"] for w in spec["workloads"]],
    )
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--json", help="write every run's result here")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    steady = True
    for workload in args.workloads:
        results = [
            run_once(workload, seed, args.seconds, 0) for seed in args.seeds
        ]
        rows = spreads(results, bounds)
        wall = spreads(results, dict.fromkeys(results[0]["wall"]), "wall")
        repeats = {}
        for seed, result in zip(args.seeds, results):
            repeats.setdefault(seed, []).append(result["modeled"])
        exact = all(all(m == ms[0] for m in ms) for ms in repeats.values())
        summary[workload] = {
            "seeds": args.seeds,
            "metrics": rows,
            "wall": wall,
            "modeled": [r["modeled"] for r in results],
            "modeled_repeat_exactly": exact,
        }
        steady = steady and exact
        print(f"{workload} ({len(args.seeds)} seeds, {args.seconds} s); "
              f"modeled figures of same-seed runs identical: {exact}")
        for name, row in rows.items():
            ok = name == "setup_s" or row["spread"] < row["limit"]
            steady = steady and ok
            print(
                f"  {name:<22}median {row['median']:<12.6g}"
                f"spread {row['spread']:7.2%}  (bound/3 {row['limit']:.2%})"
                f"{'' if ok else '  WIDE'}"
            )
        for name, row in wall.items():
            print(
                f"  wall {name:<17}median {row['median']:<12.6g}"
                f"spread {row['spread']:7.2%}  (not gated)"
            )
        sys.stdout.flush()
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
