"""The repository's benchmark: both clocks, end to end and per layer.

    python3 perfbench/run.py --workload iterate-256 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

Runs one named workload (see ``workloads.py``) from the root of a
source checkout, importing the program from ``src/``.  With
``--trace 0`` it reports the end-to-end metrics of untraced ops, timing
each against calls of a reference kernel made between ops; with
``--trace 1`` it alternates untraced and traced segments and reports
the per-layer metrics of the traced ops, plus the tracing overhead.
Every op is checked against its oracle; any failed check makes the
command exit 1.  The last line of standard output is the result as one
JSON object.  Each run's full record (environment, modeled figures,
metrics) is appended to ``.perfbench-out/history.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 11
#: Op time spent on checked but untimed ops before the timed phase.
WARMUP_S = 1.0
#: Timed calls in each reference burst, after one untimed call that
#: brings the kernel's data back into cache.
BURST_CALLS = 3
#: Bursts on each side of a segment whose median is its yardstick.
WINDOW = 4
#: Alternating untraced/traced segments of a ``--trace 1`` run; short
#: segments keep drift in the host's speed out of ``trace_overhead``.
TRACE_SEGMENTS = 10

#: Metrics of a ``--trace 0`` run.  ``op_ref.*`` are op wall times in
#: units of the reference kernel's wall time on the same host.
END_TO_END = {
    "op_ref.p50": "ref",
    "op_ref.p90": "ref",
    "modeled_gflops": "Gflops",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Raw wall-clock figures of a ``--trace 0`` run, printed and recorded
#: but not part of the result line: they move with the host's speed.
WALL = {
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "ops_per_s": "1/s",
    "wall_per_modeled": "ratio",
    "ref_ms": "ms",
}

#: Per-layer metrics of a traced run: per op unless the unit says
#: otherwise.  ``*_ms`` figures are inclusive span time, except the two
#: ``self_ms`` ones.
PER_LAYER = {
    "fortran.parse_ms": "ms/op",
    "fortran.recognize_ms": "ms/op",
    "lisp.parse_ms": "ms/op",
    "compiler.plan_ms": "ms/op",
    "compiler.scratch_words": "words/plan",
    "compiler.widths_rejected": "count/plan",
    "compiler.plan_cache.hit_ratio": "ratio",
    "compiler.depth_select_ms": "ms/op",
    "compiler.depth_cache.hit_ratio": "ratio",
    "machine.nodes_walks": "count/op",
    "machine.stacked_calls": "count/op",
    "runtime.executor.tap_ms": "ms/op",
    "runtime.executor.calls": "count/op",
    "runtime.executor.per_node_calls": "count/op",
    "runtime.halo.exchange_ms": "ms/op",
    "runtime.halo.exchanges": "count/op",
    "runtime.halo.comm_cycles": "cycles/op",
    "runtime.stencil_op.self_ms": "ms/op",
    "runtime.batch.self_ms": "ms/op",
    "runtime.abft.ms": "ms/op",
    "runtime.faults.retries": "count/op",
    "runtime.faults.sdc_corrections": "count/op",
    "runtime.faults.recovery_cycles": "cycles/op",
    "service.submit_ms": "ms/op",
    "service.queue_ms": "ms/op",
    "service.run_ms": "ms/op",
    "service.settle_ms": "ms/op",
    "service.journal_ms": "ms/op",
    "service.journal_records": "count/op",
    "service.accounting_ms": "ms/op",
    "service.pool_ms": "ms/op",
    "unattributed_share": "ratio",
    "trace_overhead": "ratio",
}


def environment(numpy_version: str) -> dict:
    """Where the figures came from, so drift is told from change."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle
                 if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        thp = Path("/sys/kernel/mm/transparent_hugepage/enabled").read_text()
        thp = thp.split("[", 1)[1].split("]", 1)[0]
    except (OSError, IndexError):
        thp = "unknown"
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "thp": thp,
    }


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    rank = q / 100 * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class ReferenceKernel:
    """A fixed 9-tap cross stencil in plain numpy on a 512x512 float32
    grid: the same kind of work as the program's tap loop, with no code
    of the program in it.

    The host's speed drifts by tens of percent over seconds to minutes,
    and moves this kernel and the program's ops together.  Timing it
    between short segments of ops gives each op a yardstick.
    """

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.x = rng.uniform(1.0, 2.0, (512, 512)).astype(np.float32)
        self.weights = [
            rng.uniform(0.05, 0.15, self.x.shape).astype(np.float32)
            for _ in range(9)
        ]
        self.out = np.empty_like(self.x)

    def call(self) -> None:
        np = self.np
        self.out.fill(0.0)
        for tap, weight in enumerate(self.weights):
            shifted = np.roll(self.x, tap - 4, axis=tap % 2)
            np.add(self.out, weight * shifted, out=self.out)

    def burst(self) -> float:
        """Median wall time of one call, in ns, over ``BURST_CALLS``
        calls made after an untimed one."""
        self.call()
        times = []
        for _ in range(BURST_CALLS):
            start = time.perf_counter_ns()
            self.call()
            times.append(time.perf_counter_ns() - start)
        return statistics.median(times)


def cache_info():
    from repro.compiler import driver

    return driver.compile_cache_info(), driver.depth_cache_info()


def hit_ratio(before, after) -> float:
    hits = after[0] - before[0]
    lookups = hits + after[1] - before[1]
    return hits / lookups if lookups else 0.0


def measure(name: str, seed: int, seconds: float, traced: bool, inject):
    import workloads
    from spans import Tracer

    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[name](seed)
    workload.inject = inject
    workload.out_dir = str(OUT)
    workload.generate()
    setups = []
    for index in range(SETUPS):
        if index:
            workload.teardown()
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    workload.prepare_checks()
    workload.run(WARMUP_S, 1)
    caches_before = cache_info()

    tracer = Tracer() if traced else None
    plain, traced_samples, shares = [], [], {}
    segments, bursts = [], []
    origin = time.perf_counter_ns()
    try:
        if not traced:
            reference = ReferenceKernel()
            min_ops = getattr(workload, "RSS_JOBS", workloads.MIN_OPS)
            bursts.append(reference.burst())
            spent = 0
            while spent < seconds * 1e9 or len(plain) < min_ops:
                segment = workload.run(workload.segment_s, 1)
                segments.append(segment)
                plain.extend(segment)
                spent += segment[-1][0]
                bursts.append(reference.burst())
        else:
            per_segment = workloads.MIN_OPS // TRACE_SEGMENTS + 1
            for segment in range(TRACE_SEGMENTS):
                on = segment % 2 == 1
                if on:
                    tracer.install()
                try:
                    samples = workload.run(
                        seconds / TRACE_SEGMENTS, per_segment,
                        tracer if on else None,
                    )
                finally:
                    tracer.uninstall()
                (traced_samples if on else plain).extend(samples)
        rss = getattr(workload, "rss_mb", None) or workloads.peak_rss_mb()
    finally:
        workload.teardown()
    caches_after = cache_info()
    if hasattr(workload, "check_all"):
        workload.check_all()
    modeled = workload.modeled()
    # compile-cold's ops have no modeled time; it measures its check runs.
    checked_wall_per_modeled = modeled.pop("wall_per_modeled", None)
    durations = [duration for _, duration, _ in plain]

    wall = {}
    if not traced:
        # Segment g runs between bursts g and g + 1; its ops are measured
        # against the median of the WINDOW bursts on either side.
        relative = []
        for g, segment in enumerate(segments):
            yardstick = statistics.median(
                bursts[max(0, g - WINDOW + 1):g + WINDOW + 1]
            )
            relative.extend(duration / yardstick for _, duration, _ in segment)
        metrics = {
            "op_ref.p50": statistics.median(relative),
            "op_ref.p90": percentile(relative, 90),
            "modeled_gflops": modeled["gflops"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss,
        }
        units = dict(END_TO_END)
        # A sample's end is on its segment's clock: op time in a closed
        # loop, wall time on serve-jobfile.
        measured_s = sum(segment[-1][0] for segment in segments) / 1e9
        modeled_s = sum(m for _, _, m in plain)
        wall = {
            "op_ms.p50": statistics.median(durations) / 1e6,
            "op_ms.p90": percentile(durations, 90) / 1e6,
            "ops_per_s": len(plain) / measured_s,
            "wall_per_modeled": checked_wall_per_modeled
            or (measured_s / modeled_s if modeled_s else math.nan),
            "ref_ms": statistics.median(bursts) / 1e6,
        }
    else:
        metrics, op_ms = tracer.layer_metrics()
        shares = {
            name: value / op_ms
            for name, value in metrics.items()
            if name.endswith("_ms")
        }
        # Counts the program returns; a workload whose ops do not
        # compile (or do not run) has none of the matching keys.
        for layer, keys in (
            ("compiler", ("scratch_words", "widths_rejected")),
            ("runtime.halo", ("exchanges", "comm_cycles")),
            ("runtime.faults", ("retries", "sdc_corrections", "recovery_cycles")),
        ):
            for key in keys:
                metrics[f"{layer}.{key}"] = float(modeled.get(key, 0))
        metrics["compiler.plan_cache.hit_ratio"] = hit_ratio(
            caches_before[0], caches_after[0]
        )
        metrics["compiler.depth_cache.hit_ratio"] = hit_ratio(
            caches_before[1], caches_after[1]
        )
        traced_durations = [duration for _, duration, _ in traced_samples]
        metrics["trace_overhead"] = (
            statistics.median(traced_durations) / statistics.median(durations)
            - 1
        )
        units = dict(PER_LAYER)
        tracer.write(OUT / f"trace-{name}-seed{seed}.jsonl", origin)

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "attempted": workload.attempted,
        "failed": workload.failed,
        "failures": workload.failures,
        "ops": {"untraced": len(plain), "traced": len(traced_samples)},
        "setups_s": setups,
        "reference_bursts_ns": bursts,
        "modeled": modeled,
        "shares": shares,
        "wall": wall,
        "metrics": metrics,
    }
    return record, units


def report(record, units, env) -> int:
    attempted, failed = record["attempted"], record["failed"]
    print(
        f"perfbench {record['workload']} seed={record['seed']} "
        f"seconds={record['seconds']} trace={record['trace']}"
    )
    print("env " + json.dumps(env, sort_keys=True))
    print("modeled " + json.dumps(record["modeled"], sort_keys=True))
    if record["shares"]:
        print("shares of traced op wall " + json.dumps(
            {k: round(v, 4) for k, v in record["shares"].items()}
        ))
    print(f"ops untraced={record['ops']['untraced']} "
          f"traced={record['ops']['traced']}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    metrics = {name: record["metrics"][name] for name in units}
    width = max(len(name) for name in [*metrics, *record["wall"]]) + 7
    for name, value in metrics.items():
        print(f"{name:<{width}}{value:>16.6g}  {units[name]}")
    print(f"{'error_rate':<{width}}{failed / attempted:>16.6g}  ratio")
    for name, value in record["wall"].items():
        print(f"{'wall ' + name:<{width}}{value:>16.6g}  {WALL[name]}")
    OUT.mkdir(exist_ok=True)
    with open(OUT / "history.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps({**record, "env": env, "time": time.time()}) + "\n")
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def self_test() -> int:
    """Show that a corrupted output and a wrong-tap plan each count as a
    failed op (op 0) and make the command exit nonzero."""
    ok = True
    for name, defect in (
        ("iterate-256", "corrupt-output"),
        ("compile-cold", "wrong-taps"),
    ):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", "1", "--seconds", "1",
             "--trace", "0", "--inject", defect],
            capture_output=True, text=True, timeout=600,
        )
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        # Op 0 carries the defect; compile-cold's known Lisp defect
        # fails other ops too (see README.md).
        fired = (
            done.returncode != 0
            and result.get("correct") is False
            and any(line.startswith("FAILED op 0:") for line in lines)
        )
        ok = ok and fired
        print(
            f"self-test {name} {defect}: exit {done.returncode}, "
            f"failed {result.get('failed')} -> "
            f"{'caught' if fired else 'NOT CAUGHT'}"
        )
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject", choices=("corrupt-output", "wrong-taps"),
        help="plant a defect in op 0 (used by --self-test)",
    )
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy
        import repro
        import workloads
    except ImportError as error:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{error}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"this checkout's src/", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"--workload must be one of {sorted(workloads.WORKLOADS)}"
        )
    env = environment(numpy.__version__)
    record, units = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.inject
    )
    return report(record, units, env)


if __name__ == "__main__":
    sys.exit(main())
