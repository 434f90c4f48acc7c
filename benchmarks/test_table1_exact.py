"""T1 on the cycle-stepped datapath: the closed form checked on every row.

The results table's rates come from the closed-form cycle model
(``StripSchedule.compute_cycles``).  This runs one iteration of each of
the table's 18 rows through exact mode -- one sequencer and one WTL3164
whose lanes are the 16 nodes -- on random data with ARRAY coefficients,
and asserts that the stepped datapath's cycle count equals the closed
form and that its result bits equal the fast path's.
"""

import numpy as np
import pytest

from conftest import emit, make_machine
from repro.compiler.driver import compile_stencil
from repro.runtime.cm_array import CMArray
from repro.runtime.stencil_op import apply_stencil
from repro.runtime.strips import StripSchedule
from repro.stencil import gallery
from test_table1_stencils import PAPER_MFLOPS

ROWS = sorted(PAPER_MFLOPS)


@pytest.mark.parametrize(
    "name, subgrid", ROWS, ids=[f"{n}-{r}x{c}" for n, (r, c) in ROWS]
)
def test_exact_cycles_equal_the_closed_form(benchmark, name, subgrid):
    machine = make_machine()
    pattern = getattr(gallery, name)()
    compiled = compile_stencil(pattern, machine.params)
    rng = np.random.default_rng(0)
    shape = (subgrid[0] * machine.grid_rows, subgrid[1] * machine.grid_cols)
    source = CMArray.from_numpy(
        "X", machine, rng.standard_normal(shape).astype(np.float32)
    )
    coeffs = {
        coeff: CMArray.from_numpy(
            coeff, machine, rng.standard_normal(shape).astype(np.float32)
        )
        for coeff in pattern.coefficient_names()
    }
    fast = apply_stencil(compiled, source, coeffs, "RF")
    exact = benchmark.pedantic(
        apply_stencil,
        (compiled, source, coeffs, "RE"),
        {"exact": True},
        rounds=1,
        iterations=1,
    )
    closed_form = StripSchedule.cached(compiled, subgrid).compute_cycles(
        machine.params
    )
    emit(benchmark, f"{name} {subgrid[0]}x{subgrid[1]} cycles", closed_form)
    assert exact.compute_cycles == closed_form
    np.testing.assert_array_equal(
        exact.result.to_numpy(), fast.result.to_numpy()
    )
