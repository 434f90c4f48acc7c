"""Digest the result bits and run records of a fixed sweep of stencil calls.

A change to the host's schedule or storage layout must leave every
result word and every modeled figure where it was.  This sweep runs
674 cases on small machines and writes, per case, a digest of the
uint32 result words, a digest of the run record (every total, the
closed form, every per-filter cost, the block depths, host calls, the
elapsed time and the fault accounting), and the main totals in the
clear:

* six gallery patterns x circular/fill/mixed boundaries x 1/4/16/64
  nodes x 1/4/7 iterations x block depth 1/auto/3, each run unguarded
  and guarded with no faults (``ResiliencePolicy()``);
* batched runs of three grids through four filters of mixed pads and
  boundaries, at each depth and iteration count, unguarded and guarded;
* rank-3 runs, with and without depth taps.

Every input comes from a fixed seed, so the file is deterministic and
``check_bench_drift.py`` diffs it against the committed copy.

Run:  python benchmarks/bench_records.py
Writes BENCH_records.json at the repository root.
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.compiler.driver import compile_stencil  # noqa: E402
from repro.machine.machine import CM2  # noqa: E402
from repro.machine.params import MachineParams  # noqa: E402
from repro.runtime.batch import CMBatch, apply_stencil_batch  # noqa: E402
from repro.runtime.cm_array import CMArray, CMArray3D  # noqa: E402
from repro.runtime.faults import ResiliencePolicy  # noqa: E402
from repro.runtime.multidim import (  # noqa: E402
    DepthTap,
    apply_stencil_3d,
    compile_3d,
)
from repro.runtime.stencil_op import apply_stencil  # noqa: E402
from repro.stencil import gallery  # noqa: E402
from repro.stencil.offsets import BoundaryMode  # noqa: E402
from repro.stencil.pattern import Coefficient, StencilPattern  # noqa: E402

C, F = BoundaryMode.CIRCULAR, BoundaryMode.FILL
PATTERNS = (
    "cross5", "cross9", "square9", "diamond13", "asymmetric5", "border_demo",
)
BOUNDARIES = {"circular": (C, C), "fill": (F, F), "mixed": (F, C)}
NODES = (1, 4, 16, 64)
ITERATIONS = (1, 4, 7)
DEPTHS = (1, "auto", 3)
SUBGRID = (8, 8)
GUARDS = (("unguarded", {}), ("guarded", {"resilience": ResiliencePolicy()}))
#: The batched runs' four filters: pads 1 and 2, both boundaries.
BATCH_FILTERS = (
    ("cross5", "circular"),
    ("cross9", "circular"),
    ("square9", "fill"),
    ("diamond13", "mixed"),
)


def variant(name: str, boundary: str) -> StencilPattern:
    pattern = getattr(gallery, name)()
    rows, cols = BOUNDARIES[boundary]
    return StencilPattern(
        pattern.taps,
        name=f"{name}_{boundary}",
        boundary={1: rows, 2: cols},
        fill_value=1.5,
    )


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def record(run, result: np.ndarray) -> dict:
    """The case's digests and headline totals."""
    figures = {
        "totals": [
            run.num_exchanges,
            run.coeff_exchanges,
            run.total_comm_cycles,
            run.total_compute_cycles,
            run.total_half_strips,
        ],
        "closed_form": list(run.closed_form),
        "host_calls": run.host_calls,
        "block_depths": list(run.block_depths),
        "per_filter": [dataclasses.asdict(cost) for cost in run.per_filter],
        "elapsed_seconds": run.elapsed_seconds,
        "fault_stats": dataclasses.asdict(run.fault_stats),
        "reconciled": run.reconciled,
    }
    words = np.ascontiguousarray(result, dtype=np.float32).view(np.uint32)
    return {
        "bits": digest(words.tobytes()),
        "record": digest(json.dumps(figures, sort_keys=True).encode()),
        "compute_cycles": run.total_compute_cycles,
        "comm_cycles": run.total_comm_cycles,
        "elapsed_s": run.elapsed_seconds,
        "reconciled": run.reconciled,
    }


def machine_of(nodes: int) -> CM2:
    return CM2(MachineParams(num_nodes=nodes))


def global_shape(machine: CM2):
    grid_rows, grid_cols = machine.shape
    return (grid_rows * SUBGRID[0], grid_cols * SUBGRID[1])


def solo_cases():
    for name in PATTERNS:
        for boundary in BOUNDARIES:
            pattern = variant(name, boundary)
            for nodes in NODES:
                machine = machine_of(nodes)
                shape = global_shape(machine)
                rng = np.random.default_rng([nodes, len(name)])
                source = CMArray.from_numpy(
                    "X", machine, rng.uniform(-1, 1, shape).astype(np.float32)
                )
                coefficients = {
                    coeff: CMArray.from_numpy(
                        coeff, machine,
                        rng.uniform(-0.3, 0.3, shape).astype(np.float32),
                    )
                    for coeff in pattern.coefficient_names()
                }
                compiled = compile_stencil(pattern, machine.params)
                for iterations in ITERATIONS:
                    for depth in DEPTHS:
                        key = f"{pattern.name}/{nodes}n/{iterations}it/d{depth}"
                        case = {"case": key}
                        for label, guard in GUARDS:
                            run = apply_stencil(
                                compiled, source, coefficients, "R",
                                iterations=iterations, block_depth=depth,
                                **guard,
                            )
                            case[label] = record(run, run.result.to_numpy())
                        yield case


def batched_cases():
    patterns = [variant(name, boundary) for name, boundary in BATCH_FILTERS]
    for nodes in (4, 16):
        machine = machine_of(nodes)
        shape = global_shape(machine)
        rng = np.random.default_rng([nodes, 99])
        sources = CMBatch.from_numpy(
            "XB", machine, rng.uniform(-1, 1, (3,) + shape).astype(np.float32)
        )
        names = sorted({n for p in patterns for n in p.coefficient_names()})
        coefficients = {
            coeff: CMArray.from_numpy(
                coeff, machine, rng.uniform(-0.3, 0.3, shape).astype(np.float32)
            )
            for coeff in names
        }
        filters = [compile_stencil(p, machine.params) for p in patterns]
        for iterations in ITERATIONS:
            for depth in DEPTHS:
                case = {"case": f"batch3x4/{nodes}n/{iterations}it/d{depth}"}
                for label, guard in GUARDS:
                    run = apply_stencil_batch(
                        filters, sources, coefficients, "RB",
                        iterations=iterations, block_depth=depth, **guard,
                    )
                    case[label] = record(run, run.result.to_numpy())
                yield case


def volume_cases():
    machine = machine_of(4)
    rows, cols = global_shape(machine)
    rng = np.random.default_rng(7)
    volume = CMArray3D.from_numpy(
        "V", machine, rng.uniform(-1, 1, (rows, cols, 5)).astype(np.float32)
    )
    coefficients = {
        "C1": CMArray3D.from_numpy(
            "VC1", machine,
            rng.uniform(-0.3, 0.3, (rows, cols, 5)).astype(np.float32),
        )
    }
    plane = StencilPattern(
        gallery.cross5().taps[:1]
        + tuple(
            dataclasses.replace(tap, coeff=Coefficient.scalar(0.125))
            for tap in gallery.cross5().taps[1:]
        ),
        name="cross5_c1",
    )
    depth_taps = (
        DepthTap(-1, Coefficient.scalar(0.25)),
        DepthTap(2, Coefficient.unit()),
    )
    for taps in ((), depth_taps):
        compiled = compile_3d(plane, taps, machine.params)
        for boundary in (C, F):
            for iterations in (1, 4):
                run = apply_stencil_3d(
                    compiled, volume, coefficients, "RV",
                    depth_boundary=boundary, iterations=iterations,
                )
                yield {
                    "case": f"volume/{len(taps)}dz/{boundary.name.lower()}"
                    f"/{iterations}it",
                    "unguarded": record(run, run.result.to_numpy()),
                }


def main() -> int:
    cases = [*solo_cases(), *batched_cases(), *volume_cases()]
    unreconciled = [
        case["case"]
        for case in cases
        for label in ("unguarded", "guarded")
        if label in case and not case[label]["reconciled"]
    ]
    out = {
        "benchmark": "records",
        "subgrid": list(SUBGRID),
        "cases": cases,
    }
    path = ROOT / "BENCH_records.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"{len(cases)} cases written to {path.name}")
    for key in unreconciled:
        print(f"  {key}: the run record does not reconcile")
    return 1 if unreconciled else 0


if __name__ == "__main__":
    sys.exit(main())
