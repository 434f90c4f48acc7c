"""Measure batched multi-convolution against the per-(grid, filter) loop.

Runs the four Table-1 filters (cross5, cross9, square9, diamond13) over a
batch of independent grids two ways and compares the *modeled* CM-2 time:

  loop     one ``apply_stencil`` call per (grid, filter) pair -- each call
           pays its own halo exchange and its own host dispatch;
  batched  one ``apply_stencil_batch`` call -- the four filters share one
           machine-wide halo exchange per batch entry, and the host issues
           each strip command once for the whole batch.

Bit-identity between the two is asserted at every size.  The modeled win
comes from amortization, not from skipping work: the batched pass still
executes every half-strip of every (grid, filter) pair, but the exchange
count collapses from batch x filters to batch, and the host-dispatch term
from batch x filters calls to one.  The acceptance bars at 1,024 nodes
(a 32x32 node grid) with batch 8 x 4 filters:

  * exchanges  == batch (one shared exchange per grid in the batch);
  * aggregate throughput >= 2x the per-filter loop.

A headline row runs the 27-point Laplacian over a 32-deep volume via
``apply_laplacian27`` (3 plane filters x 32 slabs in one machine pass)
and checks it against the plane-by-plane reference.

Run:  python benchmarks/bench_batched_conv.py
Writes BENCH_batched_conv.json at the repository root and exits nonzero
if any gate fails.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.compiler.driver import compile_stencil  # noqa: E402
from repro.machine.machine import CM2  # noqa: E402
from repro.machine.params import MachineParams  # noqa: E402
from repro.runtime.batch import CMBatch, apply_stencil_batch  # noqa: E402
from repro.runtime.cm_array import CMArray  # noqa: E402
from repro.runtime.multidim import (  # noqa: E402
    CMArray3D,
    apply_laplacian27,
    apply_laplacian27_reference,
)
from repro.runtime.stencil_op import apply_stencil  # noqa: E402
from repro.stencil.gallery import (  # noqa: E402
    cross5,
    cross9,
    diamond13,
    square9,
)

SUBGRID = (16, 16)
BATCH = 8
DEPTH = 32  # slabs in the Laplacian headline volume
FILTERS = (cross5(), cross9(), square9(), diamond13())
DEFAULT_SIZES = (16, 64, 256, 1024)
REQUIRED_SPEEDUP_AT_1024 = 2.0


def bench_size(num_nodes, rng):
    params = MachineParams(num_nodes=num_nodes)
    machine = CM2(params)
    grid_rows, grid_cols = machine.shape
    shape = (grid_rows * SUBGRID[0], grid_cols * SUBGRID[1])
    compiled = [compile_stencil(p, params) for p in FILTERS]

    data = rng.standard_normal((BATCH,) + shape).astype(np.float32)
    coeff_names = sorted(
        {name for p in FILTERS for name in p.coefficient_names()}
    )
    coeffs = {
        name: CMArray.from_numpy(
            name, machine, rng.standard_normal(shape).astype(np.float32)
        )
        for name in coeff_names
    }

    batch = CMBatch.from_numpy("X", machine, data)
    run = apply_stencil_batch(compiled, batch, coeffs)
    batched_bits = run.result.to_numpy()

    # The reference: one solo apply_stencil per (grid, filter) pair,
    # over the same resident coefficient set.
    x_solo = CMArray("X_SOLO", machine, shape)
    r_solo = CMArray("R_SOLO", machine, shape)
    loop_elapsed = 0.0
    loop_exchanges = 0
    loop_host_calls = 0
    identical = True
    for b in range(BATCH):
        x_solo.set(data[b])
        for f, comp in enumerate(compiled):
            solo = apply_stencil(comp, x_solo, coeffs, r_solo)
            loop_elapsed += solo.elapsed_seconds
            loop_exchanges += solo.num_exchanges
            loop_host_calls += solo.host_calls
            identical = identical and bool(
                np.array_equal(batched_bits[b, f], solo.result.to_numpy())
            )

    return {
        "num_nodes": num_nodes,
        "grid": [grid_rows, grid_cols],
        "subgrid": list(SUBGRID),
        "batch": BATCH,
        "filters": [p.name for p in FILTERS],
        "loop_exchanges": loop_exchanges,
        "batched_exchanges": run.num_exchanges,
        "loop_host_calls": loop_host_calls,
        "batched_host_calls": run.host_calls,
        "loop_modeled_s": loop_elapsed,
        "batched_modeled_s": run.elapsed_seconds,
        "speedup": loop_elapsed / run.elapsed_seconds,
        "batched_mflops": run.mflops,
        "loop_mflops": run.useful_flops / loop_elapsed / 1e6,
        "identical": identical,
    }


def bench_laplacian(num_nodes, rng):
    params = MachineParams(num_nodes=num_nodes)
    machine = CM2(params)
    grid_rows, grid_cols = machine.shape
    shape = (grid_rows * SUBGRID[0], grid_cols * SUBGRID[1], DEPTH)
    volume = rng.standard_normal(shape).astype(np.float32)

    src = CMArray3D.from_numpy("V", machine, volume)
    result, run = apply_laplacian27(src, params=params)
    batched = result.to_numpy()

    ref_src = CMArray3D.from_numpy("V_REF", machine, volume)
    reference = apply_laplacian27_reference(
        ref_src, "R_REF", params=params
    ).to_numpy()

    return {
        "num_nodes": num_nodes,
        "grid": [grid_rows, grid_cols],
        "volume": list(shape),
        "slabs": DEPTH,
        "batched_exchanges": run.num_exchanges,
        "batched_modeled_s": run.elapsed_seconds,
        "batched_mflops": run.mflops,
        "identical": bool(np.array_equal(batched, reference)),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES),
        help="machine sizes (node counts) to measure",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_batched_conv.json",
    )
    args = parser.parse_args(argv)

    rng = np.random.default_rng(1991)

    results = []
    for num_nodes in args.sizes:
        row = bench_size(num_nodes, rng)
        results.append(row)
        print(
            f"{row['num_nodes']:5d} nodes ({row['grid'][0]}x{row['grid'][1]}) "
            f"batch {row['batch']} x {len(row['filters'])} filters: "
            f"loop {row['loop_modeled_s'] * 1e3:8.2f} ms "
            f"({row['loop_exchanges']:3d} exchanges)   "
            f"batched {row['batched_modeled_s'] * 1e3:7.2f} ms "
            f"({row['batched_exchanges']:2d} exchanges)   "
            f"speedup {row['speedup']:5.2f}x   "
            f"identical: {row['identical']}"
        )

    largest = max(args.sizes)
    laplacian = bench_laplacian(largest, rng)
    print(
        f"{laplacian['num_nodes']:5d} nodes laplacian27 over "
        f"{laplacian['slabs']} slabs: "
        f"batched {laplacian['batched_modeled_s'] * 1e3:7.2f} ms "
        f"({laplacian['batched_exchanges']:2d} exchanges, "
        f"{laplacian['batched_mflops']:8.1f} MFLOPS)   "
        f"identical: {laplacian['identical']}"
    )

    report = {
        "benchmark": "batched_conv",
        "filters": [p.name for p in FILTERS],
        "batch": BATCH,
        "subgrid": list(SUBGRID),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "results": results,
        "laplacian27": laplacian,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    failures = []
    for row in results:
        where = f"{row['num_nodes']} nodes"
        if not row["identical"]:
            failures.append(f"{where}: batched results differ from the loop")
        if row["batched_exchanges"] != row["batch"]:
            failures.append(
                f"{where}: {row['batched_exchanges']} exchanges, expected "
                f"one shared exchange per batch entry ({row['batch']})"
            )
        if (
            row["num_nodes"] >= 1024
            and row["speedup"] < REQUIRED_SPEEDUP_AT_1024
        ):
            failures.append(
                f"{where}: speedup {row['speedup']:.2f}x below the "
                f"{REQUIRED_SPEEDUP_AT_1024:.0f}x bar"
            )
    if not laplacian["identical"]:
        failures.append(
            "laplacian27: batched volume differs from the plane-by-plane "
            "reference"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
