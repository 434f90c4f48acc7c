"""The whole-machine fast executor is bit-identical to exact mode.

Property-style sweep: for patterns spanning pad widths 0 through 3
(corner-reaching included), both boundary modes (FILL with a nonzero
fill), and square and non-square node grids, the exact cycle-stepped
datapath and the whole-machine fast path must produce the same float32
bits -- and both must match the numpy reference oracle.
"""

import numpy as np
import pytest

from repro.baseline.reference import reference_stencil
from repro.compiler.driver import compile_stencil
from repro.machine.machine import CM2
from repro.machine.params import MachineParams
from repro.runtime.batch import apply_stencil_batch
from repro.runtime.cm_array import CMArray
from repro.runtime.executor import ExecutionSetupError
from repro.runtime.stencil_op import apply_stencil
from repro.stencil.gallery import box, cross, diamond, square
from repro.stencil.offsets import BoundaryMode
from repro.stencil.pattern import pattern_from_offsets


def with_fill(pattern, fill_value):
    """The same taps with FILL boundaries on both dimensions."""
    return pattern_from_offsets(
        [tap.offset for tap in pattern.taps],
        name=f"{pattern.name}_fill",
        boundary={1: BoundaryMode.FILL, 2: BoundaryMode.FILL},
        fill_value=fill_value,
    )


def corner3():
    """Pad-3 taps reaching the diagonal halo corners, which only arrive
    through the corner exchange step."""
    return pattern_from_offsets(
        [(-3, -3), (-3, 0), (0, -3), (0, 0), (3, 3)], name="corner3"
    )


CASES = [
    ("box1x1-pad0", lambda: box(1, 1)),
    ("row4-pad0x2", lambda: box(1, 4)),
    ("cross5-pad1", lambda: cross(1)),
    ("square9-pad1-fill", lambda: with_fill(square(1), 0.75)),
    ("diamond13-pad2", lambda: diamond(2)),
    ("cross9-pad2-fill", lambda: with_fill(cross(2), -1.5)),
    ("cross13-pad3", lambda: cross(3)),
    ("corner3-pad3", corner3),
    ("corner3-pad3-fill", lambda: with_fill(corner3(), 2.25)),
]

#: (num_nodes, global shape): 8 nodes make a non-square 2x4 grid.
MACHINES = [(8, (16, 24)), (16, (32, 24))]


def make_problem(pattern, num_nodes, shape, seed):
    params = MachineParams(num_nodes=num_nodes)
    machine = CM2(params)
    compiled = compile_stencil(pattern, params)
    rng = np.random.default_rng(seed)
    x_host = rng.standard_normal(shape).astype(np.float32)
    coeff_host = {
        name: rng.standard_normal(shape).astype(np.float32)
        for name in pattern.coefficient_names()
    }
    x = CMArray.from_numpy("X", machine, x_host)
    coeffs = {
        name: CMArray.from_numpy(name, machine, data)
        for name, data in coeff_host.items()
    }
    return machine, compiled, x, coeffs, x_host, coeff_host


@pytest.mark.parametrize(
    "num_nodes,shape", MACHINES, ids=["nodes8-2x4", "nodes16-4x4"]
)
@pytest.mark.parametrize(
    "factory", [factory for _, factory in CASES], ids=[cid for cid, _ in CASES]
)
def test_three_semantics_bit_identical(factory, num_nodes, shape):
    pattern = factory()
    machine, compiled, x, coeffs, x_host, coeff_host = make_problem(
        pattern, num_nodes, shape, seed=len(pattern.taps)
    )

    exact = apply_stencil(compiled, x, coeffs, "R_EXACT", exact=True)
    fast = apply_stencil(compiled, x, coeffs, "R_FAST")

    exact_bits = exact.result.to_numpy()
    expected = reference_stencil(pattern, x_host, coeff_host)
    np.testing.assert_array_equal(exact_bits, expected)
    np.testing.assert_array_equal(fast.result.to_numpy(), exact_bits)


def test_eight_nodes_make_a_non_square_grid():
    machine = CM2(MachineParams(num_nodes=8))
    assert machine.shape == (2, 4)


def test_iterated_three_semantics_bit_identical():
    pattern = cross(2)
    machine, compiled, x, coeffs, x_host, coeff_host = make_problem(
        pattern, 8, (16, 24), seed=7
    )
    exact = apply_stencil(compiled, x, coeffs, "R_EXACT", iterations=3, exact=True)
    fast = apply_stencil(compiled, x, coeffs, "R_FAST", iterations=3)

    expected = x_host
    for _ in range(3):
        expected = reference_stencil(pattern, expected, coeff_host)
    exact_bits = exact.result.to_numpy()
    np.testing.assert_array_equal(exact_bits, expected)
    np.testing.assert_array_equal(fast.result.to_numpy(), exact_bits)


@pytest.mark.parametrize(
    "detach,kwargs",
    [
        ("X", {}),
        ("C1", {}),
        ("R", {}),
        ("X", {"iterations": 4, "block_depth": 2}),
        ("C1", {"iterations": 4, "block_depth": 2}),
        ("X", {"abft": True}),
        ("R", {"abft": True}),
        ("X", {"batched": True}),
        ("C1", {"batched": True}),
    ],
    ids=[
        "source", "coefficient", "result",
        "blocked-source", "blocked-coefficient",
        "guarded-source", "guarded-result",
        "batched-source", "batched-coefficient",
    ],
)
def test_detached_buffer_is_a_typed_error(detach, kwargs):
    """A node buffer no longer backed by its array's machine-wide stack
    fails the run with a typed error naming the buffer -- on the fast,
    blocked, guarded and batched paths alike -- never a silently
    different result."""
    pattern = cross(1)
    machine, compiled, x, coeffs, x_host, coeff_host = make_problem(
        pattern, 8, (16, 24), seed=3
    )
    result = CMArray("R", machine, x.global_shape)
    # Replace one node's view with a private copy of the same data.
    node = next(iter(machine.nodes()))
    node.memory.install(detach, node.memory.buffer(detach))
    assert machine.stacked(detach) is None

    with pytest.raises(
        ExecutionSetupError, match=f"{detach!r} is not backed by an intact"
    ):
        if kwargs.pop("batched", False):
            apply_stencil_batch([compiled], [x], coeffs, **kwargs)
        else:
            apply_stencil(compiled, x, coeffs, result, **kwargs)
