"""Guard the cost of surviving hard faults.

Three properties, enforced with nonzero exit status:

1. **Guard-off is free.**  A run without an injector produces results
   byte-identical to a guarded no-fault run on a spared machine -- the
   resilience machinery never perturbs the arithmetic, only the
   accounting.
2. **No-fault guarded overhead < 5%.**  With spares configured and the
   default :class:`ResiliencePolicy`, the genesis checkpoint plus the
   periodic checkpoint cadence must cost less than 5% of the fault-free
   run's modeled cycles (comm + compute).
3. **The mini campaign survives.**  A seeded single-pattern chaos
   campaign (hard faults included) completes with 100% bit-identical
   survival, zero silent corruptions, and exact cost reconciliation.

Run:  python benchmarks/bench_hard_faults.py
Writes BENCH_hard_faults.json at the repository root.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis.chaos import run_campaign, run_trial  # noqa: E402
from repro.compiler.driver import compile_stencil  # noqa: E402
from repro.machine.machine import CM2  # noqa: E402
from repro.machine.params import MachineParams  # noqa: E402
from repro.runtime.cm_array import CMArray  # noqa: E402
from repro.runtime.faults import (  # noqa: E402
    FaultInjector,
    FaultKind,
    HardFaultSpec,
)
from repro.runtime.stencil_op import apply_stencil  # noqa: E402
from repro.stencil.gallery import cross  # noqa: E402

PATTERN = cross(2)  # the 9-point Gordon Bell cross
NODES = 16
SUBGRID = (32, 32)
ITERATIONS = 24
SPARES = 2
MAX_OVERHEAD = 0.05
CAMPAIGN_SEEDS = (1, 2)
CAMPAIGN_PATTERNS = ("cross5",)


def build_problem(*, spares, seed=0):
    params = MachineParams(num_nodes=NODES)
    machine = CM2(params, spares=spares)
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
        / "BENCH_hard_faults.json",
    )
    args = parser.parse_args(argv)

    # 1 + 2: guard-off vs guarded no-fault, bits and modeled cycles.
    compiled, x, coeffs = build_problem(spares=0)
    plain_wall, plain = timed_apply(compiled, x, coeffs, "R_PLAIN")
    compiled2, x2, coeffs2 = build_problem(spares=SPARES)
    guarded_wall, guarded = timed_apply(
        compiled2, x2, coeffs2, "R_GUARDED",
        faults=FaultInjector(seed=1, rates={}),
    )
    identical = bool(
        np.array_equal(plain.result.to_numpy(), guarded.result.to_numpy())
    )
    plain_cycles = plain.total_comm_cycles + plain.total_compute_cycles
    guarded_cycles = (
        guarded.total_comm_cycles + guarded.total_compute_cycles
    )
    overhead = (guarded_cycles - plain_cycles) / plain_cycles
    stats = guarded.fault_stats
    print(
        f"guard off : {plain_cycles:>12} cycles  "
        f"({plain_wall * 1e3:6.1f} ms host)"
    )
    print(
        f"guard on  : {guarded_cycles:>12} cycles  "
        f"({guarded_wall * 1e3:6.1f} ms host)  "
        f"{stats.checkpoints} checkpoints"
    )
    print(
        f"overhead  : {100 * overhead:.2f}% modeled "
        f"(bar {100 * MAX_OVERHEAD:.0f}%), "
        f"bit-identical: {identical}"
    )

    # 3: the mini survival campaign, hard-fault kinds included.
    campaign_start = time.perf_counter()
    report = run_campaign(
        seeds=CAMPAIGN_SEEDS, patterns=CAMPAIGN_PATTERNS
    )
    # Random rates over a handful of exchanges do not guarantee a node
    # actually dies, so the hard-fault guarantee rides on scheduled
    # kills: one dead node and one dead link per execution mode.
    scheduled = []
    for mode, mode_kwargs in (
        ("blocked", {"block_depth": 3}),
        ("fast", {}),
        ("exact", {"exact": True}),
    ):
        for spec in (
            HardFaultSpec(FaultKind.NODE_DEAD, 2, 1, 1),
            HardFaultSpec(FaultKind.LINK_DOWN, 1, 0, 1, direction="E"),
        ):
            scheduled.append(
                run_trial(
                    "cross5", "torus", mode, dict(mode_kwargs),
                    seed=1, rates={}, schedule=[spec],
                )
            )
    report.trials.extend(scheduled)
    campaign_wall = time.perf_counter() - campaign_start
    print(report.describe())

    payload = {
        "benchmark": "hard_faults",
        "pattern": PATTERN.name,
        "nodes": NODES,
        "subgrid": list(SUBGRID),
        "iterations": ITERATIONS,
        "spares": SPARES,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "guard_off_cycles": plain_cycles,
        "guarded_cycles": guarded_cycles,
        "guarded_checkpoints": stats.checkpoints,
        "overhead": overhead,
        "overhead_bar": MAX_OVERHEAD,
        "bit_identical": identical,
        "campaign_seconds": campaign_wall,
        "campaign": report.to_dict(),
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")

    failures = []
    if not identical:
        failures.append("guarded no-fault run is not byte-identical")
    if overhead >= MAX_OVERHEAD:
        failures.append(
            f"no-fault guarded overhead {100 * overhead:.2f}% "
            f">= {100 * MAX_OVERHEAD:.0f}% bar"
        )
    if not report.ok:
        failures.append(
            f"campaign not clean: {report.num_survived}/"
            f"{report.num_trials} survived, "
            f"{report.silent_corruptions} silent corruptions, "
            f"{report.unreconciled} unreconciled"
        )
    if sum(t.stats.remaps for t in scheduled) < 3:
        failures.append("a scheduled node kill did not end in a remap")
    if sum(t.stats.reroutes for t in scheduled) < 3:
        failures.append("a scheduled link kill did not end in a reroute")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
