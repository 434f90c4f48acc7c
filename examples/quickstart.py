"""Quickstart: compile and run the paper's opening 5-point stencil.

Takes the exact Fortran subroutine printed in section 6 of the paper,
compiles it with the convolution compiler, runs it on a simulated
16-node CM-2 board (the configuration of the paper's preliminary
timings), checks the distributed result against plain numpy, and prints
the performance accounting.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import CM2, CMArray, MachineParams, apply_stencil, compile_fortran
from repro.analysis import report
from repro.baseline import reference_stencil

PAPER_SUBROUTINE = """
SUBROUTINE CROSS (R, X, C1, C2, C3, C4, C5)
REAL, ARRAY(:, :) :: R, X, C1, C2, C3, C4, C5
R = C1 * CSHIFT (X, 1, -1) &
  + C2 * CSHIFT (X, 2, -1) &
  + C3 * X &
  + C4 * CSHIFT (X, 2, +1) &
  + C5 * CSHIFT (X, 1, +1)
END
"""


def main():
    params = MachineParams(num_nodes=16)
    machine = CM2(params)
    print(machine.describe())
    print()

    compiled = compile_fortran(PAPER_SUBROUTINE, params)
    print("Recognized stencil:")
    print(compiled.pattern.pictogram())
    print()
    print(compiled.describe())
    print()

    # A 1024x1024 problem: 256x256 per node, the largest row of the
    # paper's results table.
    rng = np.random.default_rng(1991)
    shape = (1024, 1024)
    x_host = rng.standard_normal(shape).astype(np.float32)
    coeff_host = {
        name: rng.standard_normal(shape).astype(np.float32)
        for name in compiled.pattern.coefficient_names()
    }

    x = CMArray.from_numpy("X", machine, x_host)
    coeffs = {
        name: CMArray.from_numpy(name, machine, data)
        for name, data in coeff_host.items()
    }

    single = apply_stencil(compiled, x, coeffs, "RCHECK")
    expected = reference_stencil(compiled.pattern, x_host, coeff_host)
    matches = np.array_equal(single.result.to_numpy(), expected)
    print(f"result matches numpy reference bit-for-bit: {matches}")
    print()

    # The timed run: 100 true iterations, each feeding its result back
    # as the next iteration's source with freshly exchanged halos.
    run = apply_stencil(compiled, x, coeffs, iterations=100)
    print(run.describe())
    rep = report(run)
    print(
        f"extrapolated to a full 2,048-node CM-2: "
        f"{rep.extrapolated_gflops:.2f} Gflops "
        f"(paper's 256x256 cross row: 9.29 Gflops)"
    )
    return matches


if __name__ == "__main__":
    raise SystemExit(0 if main() else 1)
