"""Measure temporally blocked iterated runs against the unblocked path.

Runs ``apply_stencil(iterations=k)`` blocked and unblocked across
gallery stencils and block depths, verifying bit-identical results for
every cell, and reports the modeled CM-2 cost of both paths: exchange
count, communication cycles, and elapsed time, plus the host wall clock
of the simulator itself.

Temporal blocking amortizes what the run-time library's up-front halo
exchange exists to amortize -- per-call latency.  One ``T * pad``-deep
exchange replaces ``T`` shallow ones, so the communication bill drops
toward ``1/T`` (the acceptance bar is 2x at 1,024 nodes for depth-4
blocking); the price is redundant compute in the shrinking ghost ring,
so *elapsed* time only improves where per-call costs dominate that ring
-- small subgrids, the machine-balance regime the paper's Gordon Bell
runs lived in.  The headline configuration pins that regime; the
subgrid sweep records the trade across the range honestly.

Run:  python benchmarks/bench_iterated.py
Writes BENCH_iterated_fusion.json at the repository root and exits
nonzero if any cell loses bit-identity, the depth-4 communication
speedup falls under 2x, or blocked runs are slower (modeled elapsed)
than unblocked at any depth >= 2 in the headline configuration.
"""

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.compiler.driver import compile_stencil  # noqa: E402
from repro.machine.machine import CM2  # noqa: E402
from repro.machine.params import MachineParams  # noqa: E402
from repro.runtime.cm_array import CMArray  # noqa: E402
from repro.runtime.stencil_op import apply_stencil  # noqa: E402
from repro.stencil.gallery import cross, square  # noqa: E402

NUM_NODES = 1024
ITERATIONS = 192  # long enough to amortize the coefficient deep halos
DEPTHS = (2, 3, 4)
#: The amortization regime: subgrids small enough that per-call costs
#: rival the ghost ring's redundant compute.
HEADLINE_SUBGRID = (6, 6)
HEADLINE_PATTERNS = (cross(1), square(1))
SUBGRID_SWEEP = ((4, 4), (8, 8), (16, 16))
REQUIRED_COMM_SPEEDUP_AT_DEPTH4 = 2.0
REPEATS = 2


def make_problem(pattern, num_nodes, subgrid, rng):
    params = MachineParams(num_nodes=num_nodes)
    machine = CM2(params)
    grid_rows, grid_cols = machine.shape
    shape = (grid_rows * subgrid[0], grid_cols * subgrid[1])
    compiled = compile_stencil(pattern, params)
    # Weights sum to ~1 so long runs stay in normal float32 range;
    # denormals would distort the wall-clock numbers in both modes.
    k = max(1, len(pattern.coefficient_names()))
    x = CMArray.from_numpy(
        "X", machine, rng.uniform(0.5, 1.5, shape).astype(np.float32)
    )
    coeffs = {
        name: CMArray.from_numpy(
            name,
            machine,
            rng.uniform(0.8 / k, 1.2 / k, shape).astype(np.float32),
        )
        for name in pattern.coefficient_names()
    }
    result = CMArray("R", machine, shape)
    return compiled, x, coeffs, result


def time_depth(compiled, x, coeffs, result, depth, repeats=REPEATS):
    best = float("inf")
    run = None
    for _ in range(repeats):
        start = time.perf_counter()
        run = apply_stencil(
            compiled, x, coeffs, result,
            iterations=ITERATIONS, block_depth=depth,
        )
        best = min(best, time.perf_counter() - start)
    return best, run


def bench_cell(pattern, num_nodes, subgrid, depth, rng):
    compiled, x, coeffs, result = make_problem(
        pattern, num_nodes, subgrid, rng
    )
    # Warm up (scratch allocation, plan compilation), then measure.
    time_depth(compiled, x, coeffs, result, 1, repeats=1)
    time_depth(compiled, x, coeffs, result, depth, repeats=1)

    wall_unblocked, unblocked = time_depth(compiled, x, coeffs, result, 1)
    reference_bits = unblocked.result.to_numpy().copy()
    wall_blocked, blocked = time_depth(compiled, x, coeffs, result, depth)
    identical = bool(
        np.array_equal(blocked.result.to_numpy(), reference_bits)
    )
    return {
        "pattern": pattern.name,
        "num_nodes": num_nodes,
        "subgrid": list(subgrid),
        "iterations": ITERATIONS,
        "depth_requested": depth,
        "depth_used": blocked.block_depths[0],
        "exchanges_unblocked": unblocked.num_exchanges,
        "exchanges_blocked": blocked.num_exchanges,
        "coeff_exchanges": blocked.coeff_exchanges,
        "comm_cycles_unblocked": unblocked.total_comm_cycles,
        "comm_cycles_blocked": blocked.total_comm_cycles,
        "comm_speedup": (
            unblocked.total_comm_cycles / blocked.total_comm_cycles
        ),
        "elapsed_unblocked_s": unblocked.elapsed_seconds,
        "elapsed_blocked_s": blocked.elapsed_seconds,
        "elapsed_speedup": (
            unblocked.elapsed_seconds / blocked.elapsed_seconds
        ),
        "wall_unblocked_s": wall_unblocked,
        "wall_blocked_s": wall_blocked,
        "identical": identical,
    }


def show(row):
    print(
        f"{row['pattern']:<10} {row['subgrid'][0]:>2}x{row['subgrid'][1]:<3}"
        f" T={row['depth_used']}  "
        f"exchanges {row['exchanges_unblocked']:>3} -> "
        f"{row['exchanges_blocked']:>3}  "
        f"comm {row['comm_speedup']:4.2f}x  "
        f"elapsed {row['elapsed_speedup']:4.2f}x  "
        f"identical: {row['identical']}"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--nodes", type=int, default=NUM_NODES,
        help="machine size (node count) to measure",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_iterated_fusion.json",
    )
    args = parser.parse_args(argv)

    rng = np.random.default_rng(1991)

    headline = []
    for pattern in HEADLINE_PATTERNS:
        for depth in DEPTHS:
            row = bench_cell(pattern, args.nodes, HEADLINE_SUBGRID, depth, rng)
            headline.append(row)
            show(row)

    # The regime sweep: where the ghost ring's redundant compute beats
    # the per-call savings, the elapsed ratio honestly drops under 1.
    sweep = []
    for subgrid in SUBGRID_SWEEP:
        row = bench_cell(cross(1), args.nodes, subgrid, 4, rng)
        sweep.append(row)
        show(row)

    report = {
        "benchmark": "iterated_fusion",
        "num_nodes": args.nodes,
        "iterations": ITERATIONS,
        "headline_subgrid": list(HEADLINE_SUBGRID),
        "repeats": REPEATS,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "headline": headline,
        "subgrid_sweep": sweep,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    failures = []
    for row in headline + sweep:
        where = (
            f"{row['pattern']} {row['subgrid'][0]}x{row['subgrid'][1]} "
            f"T={row['depth_used']}"
        )
        if not row["identical"]:
            failures.append(f"{where}: blocked result differs")
        expected = math.ceil(row["iterations"] / row["depth_used"])
        if row["exchanges_blocked"] != expected:
            failures.append(
                f"{where}: {row['exchanges_blocked']} exchanges, "
                f"expected ceil(k/T) = {expected}"
            )
    for row in headline:
        where = (
            f"{row['pattern']} {row['subgrid'][0]}x{row['subgrid'][1]} "
            f"T={row['depth_used']}"
        )
        if row["depth_used"] >= 2 and row["elapsed_speedup"] < 1.0:
            failures.append(
                f"{where}: blocked slower than unblocked "
                f"({row['elapsed_speedup']:.2f}x elapsed)"
            )
        if (
            row["depth_used"] == 4
            and row["comm_speedup"] < REQUIRED_COMM_SPEEDUP_AT_DEPTH4
        ):
            failures.append(
                f"{where}: comm speedup {row['comm_speedup']:.2f}x below "
                f"the {REQUIRED_COMM_SPEEDUP_AT_DEPTH4:.0f}x bar"
            )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
