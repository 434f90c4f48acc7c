"""Guard the cost and the guarantees of algorithm-based fault tolerance.

Three properties, enforced with nonzero exit status:

1. **ABFT-on is bit-identical.**  A no-fault run with
   ``ResiliencePolicy(abft=True)`` produces results byte-identical to
   the guarded baseline -- the checksum seal/verify passes never touch
   the arithmetic, only the accounting.
2. **No-fault ABFT overhead < 5%.**  Relative to the guarded no-fault
   baseline (same checkpoints, same guard bookkeeping), the extra
   modeled cycles of sealing and verifying every iteration must stay
   under 5%.
3. **The mini SDC campaign heals forward.**  A seeded campaign of
   single-cell bit-flips completes with 100% detection, every strike
   forward-corrected (zero rollbacks, zero replayed iterations), zero
   silent escapes, and exact cycle reconciliation including the
   dedicated ``abft_cycles`` bucket; multi-cell strikes take the
   rollback ladder or end in a typed error.

Run:  python benchmarks/bench_abft.py
Writes BENCH_abft.json at the repository root.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.chaos import run_sdc_campaign  # noqa: E402
from repro.compiler.driver import compile_stencil  # noqa: E402
from repro.machine.machine import CM2  # noqa: E402
from repro.machine.params import MachineParams  # noqa: E402
from repro.runtime.cm_array import CMArray  # noqa: E402
from repro.runtime.faults import (  # noqa: E402
    FaultInjector,
    ResiliencePolicy,
)
from repro.runtime.stencil_op import apply_stencil  # noqa: E402
from repro.stencil.gallery import cross  # noqa: E402

PATTERN = cross(2)  # the 9-point Gordon Bell cross
NODES = 16
SUBGRID = (32, 32)
ITERATIONS = 24
MAX_OVERHEAD = 0.05
CAMPAIGN_SEEDS = (1, 2, 3)


def build_problem(seed=0):
    params = MachineParams(num_nodes=NODES)
    machine = CM2(params)
    grid_rows, grid_cols = machine.shape
    shape = (grid_rows * SUBGRID[0], grid_cols * SUBGRID[1])
    compiled = compile_stencil(PATTERN, params)
    rng = np.random.default_rng(seed)
    x = CMArray.from_numpy(
        "X", machine, rng.standard_normal(shape).astype(np.float32)
    )
    coeffs = {
        name: CMArray.from_numpy(
            name, machine, rng.standard_normal(shape).astype(np.float32)
        )
        for name in PATTERN.coefficient_names()
    }
    return compiled, x, coeffs


def timed_apply(compiled, x, coeffs, result, **kwargs):
    start = time.perf_counter()
    run = apply_stencil(
        compiled, x, coeffs, result, iterations=ITERATIONS, **kwargs
    )
    return time.perf_counter() - start, run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_abft.json",
    )
    args = parser.parse_args(argv)

    # 1 + 2: guarded baseline vs guarded + ABFT, no faults anywhere.
    # Both runs carry the same checkpoint cadence, so the delta is the
    # seal/verify overhead alone.
    compiled, x, coeffs = build_problem()
    base_wall, base = timed_apply(
        compiled, x, coeffs, "R_BASE",
        faults=FaultInjector(seed=1, rates={}),
        resilience=ResiliencePolicy(),
    )
    compiled2, x2, coeffs2 = build_problem()
    abft_wall, abft = timed_apply(
        compiled2, x2, coeffs2, "R_ABFT",
        faults=FaultInjector(seed=1, rates={}),
        resilience=ResiliencePolicy(abft=True),
    )
    identical = bool(
        np.array_equal(base.result.to_numpy(), abft.result.to_numpy())
    )
    base_cycles = base.total_comm_cycles + base.total_compute_cycles
    abft_cycles = abft.total_comm_cycles + abft.total_compute_cycles
    overhead = (abft_cycles - base_cycles) / base_cycles
    stats = abft.fault_stats
    print(
        f"guarded   : {base_cycles:>12} cycles  "
        f"({base_wall * 1e3:6.1f} ms host)"
    )
    print(
        f"+ abft    : {abft_cycles:>12} cycles  "
        f"({abft_wall * 1e3:6.1f} ms host)  "
        f"{stats.abft_seals} seals, {stats.abft_verifies} verifies"
    )
    print(
        f"overhead  : {100 * overhead:.2f}% modeled "
        f"(bar {100 * MAX_OVERHEAD:.0f}%), "
        f"bit-identical: {identical}"
    )
    exact_bucket = abft_cycles == base_cycles + stats.abft_cycles

    # 3: the mini SDC campaign (single-cell, batched, multi-cell).
    campaign_start = time.perf_counter()
    report = run_sdc_campaign(seeds=CAMPAIGN_SEEDS)
    campaign_wall = time.perf_counter() - campaign_start
    print(report.describe())
    singles = report.single_cell_trials
    single_replays = sum(t.replays for t in singles)
    single_rollbacks = sum(t.rollbacks for t in singles)

    payload = {
        "benchmark": "abft",
        "pattern": PATTERN.name,
        "nodes": NODES,
        "subgrid": list(SUBGRID),
        "iterations": ITERATIONS,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "baseline_cycles": base_cycles,
        "abft_cycles_total": abft_cycles,
        "abft_seal_verify_cycles": stats.abft_cycles,
        "abft_seals": stats.abft_seals,
        "abft_verifies": stats.abft_verifies,
        "overhead": overhead,
        "overhead_bar": MAX_OVERHEAD,
        "bit_identical": identical,
        "overhead_is_exactly_the_abft_bucket": exact_bucket,
        "campaign_seconds": campaign_wall,
        "campaign": report.to_dict(),
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")

    failures = []
    if not identical:
        failures.append("abft no-fault run is not byte-identical")
    if overhead >= MAX_OVERHEAD:
        failures.append(
            f"no-fault abft overhead {100 * overhead:.2f}% "
            f">= {100 * MAX_OVERHEAD:.0f}% bar"
        )
    if not exact_bucket:
        failures.append(
            "abft overhead does not equal the abft_cycles bucket"
        )
    if not report.ok:
        failures.append(
            f"sdc campaign not clean: "
            f"{report.forward_corrected}/{len(singles)} "
            f"forward-corrected, "
            f"{report.silent_corruptions} silent corruptions, "
            f"{report.unreconciled} unreconciled"
        )
    if report.silent_corruptions:
        failures.append("a silent corruption escaped the verifier")
    if single_replays or single_rollbacks:
        failures.append(
            f"single-cell damage used the ladder: "
            f"{single_rollbacks} rollbacks, "
            f"{single_replays} replayed iterations"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
