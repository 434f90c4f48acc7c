"""One front door: every entry point checks a call once, up front.

``apply_stencil``, ``apply_stencil_batch`` and ``apply_stencil_3d`` run
the same check (``runtime.batch.check_call``) before anything is
allocated, staged or bound, so a rejected call raises a typed error and
leaves every stack in machine storage as it was, and the two 2-D doors
accept the same arrays.
"""

import numpy as np
import pytest

from repro.compiler.codegen import ExtraTerm
from repro.compiler.driver import compile_stencil
from repro.compiler.fusion import fuse
from repro.machine.machine import CM2
from repro.machine.params import MachineParams
from repro.runtime.batch import CMBatch, apply_stencil_batch
from repro.runtime.cm_array import CMArray, ExecutionSetupError
from repro.runtime.multidim import CMArray3D, apply_stencil_3d, compile_3d
from repro.runtime.stencil_op import apply_stencil
from repro.stencil import gallery
from repro.stencil.pattern import Coefficient, pattern_from_offsets
from repro.verify.aliasing import AliasingError


def make_problem(pattern, shape):
    """A 4-node machine holding a source ``X``, a two-grid batch ``XB``
    and the statement-named coefficients of ``pattern``."""
    machine = CM2(MachineParams(num_nodes=4))
    compiled = compile_stencil(pattern, machine.params)
    rng = np.random.default_rng(11)

    def data(*lead):
        return rng.standard_normal(lead + shape).astype(np.float32)

    source = CMArray.from_numpy("X", machine, data())
    batch = CMBatch.from_numpy("XB", machine, data(2))
    coefficients = {
        name: CMArray.from_numpy(name, machine, data())
        for name in compiled.pattern.coefficient_names()
    }
    return machine, compiled, source, batch, coefficients


def call(door, compiled, source, batch, coefficients, **kwargs):
    if door == "solo":
        return apply_stencil(compiled, source, coefficients, **kwargs)
    return apply_stencil_batch([compiled], batch, coefficients, **kwargs)


def snapshot(machine):
    return {
        name: (stack, stack.copy())
        for name, stack in machine.storage.distinct(scratch=True)
    }


def assert_unchanged(machine, before):
    """Every distinct stack keeps its name, its identity and its bits."""
    after = dict(machine.storage.distinct(scratch=True))
    assert after.keys() == before.keys()
    for name, (stack, bits) in before.items():
        assert after[name] is stack, name
        np.testing.assert_array_equal(stack, bits)


@pytest.mark.parametrize(
    "case",
    [
        "result-is-source",
        "result-is-coefficient",
        "coefficients-elsewhere",
        "halo-too-wide",
        "bad-depth",
    ],
)
@pytest.mark.parametrize("door", ["solo", "batch"])
def test_a_rejected_call_is_typed_and_changes_no_stack(door, case):
    if case == "halo-too-wide":
        # 1x1 subgrids: cross9's 2-deep halo reaches past the neighbors.
        problem = make_problem(gallery.cross9(), (2, 2))
    else:
        problem = make_problem(gallery.cross5(), (8, 8))
    machine, compiled, source, batch, coefficients = problem
    kwargs = {}
    if case == "result-is-source":
        kwargs["result"] = source.name if door == "solo" else batch.name
    elif case == "result-is-coefficient":
        kwargs["result"] = "C1"
    elif case == "coefficients-elsewhere":
        elsewhere = CM2(machine.params)
        coefficients = {
            name: CMArray.from_numpy(name, elsewhere, 2 * array.to_numpy())
            for name, array in coefficients.items()
        }
    elif case == "bad-depth":
        kwargs.update(iterations=4, block_depth=0)
    before = snapshot(machine)
    expected = ValueError if case == "bad-depth" else ExecutionSetupError
    with pytest.raises(expected):
        call(door, compiled, source, batch, coefficients, **kwargs)
    assert_unchanged(machine, before)


@pytest.mark.parametrize(
    "case",
    [
        "coefficient-depth-2",
        "coefficient-depth-5",
        "coefficient-rank-2",
        "result-depth-2",
        "result-depth-5",
        "no-iterations",
        "result-is-source",
        "extra-term-not-a-depth-tap",
    ],
)
def test_a_rejected_volume_call_is_typed_and_changes_no_stack(case):
    """The third door: ``apply_stencil_3d`` calls ``check_call`` too, on
    column3 over an 8x8x3 source with rank-3 coefficients."""
    machine = CM2(MachineParams(num_nodes=4))
    pattern = pattern_from_offsets([(-1, 0), (0, 0), (1, 0)], name="column3")
    compiled = compile_3d(pattern, (), machine.params)
    rng = np.random.default_rng(12)

    def volume(name, depth):
        data = rng.standard_normal((8, 8, depth)).astype(np.float32)
        return CMArray3D.from_numpy(name, machine, data)

    source = volume("X", 3)
    coefficients = {
        name: volume(name, 3) for name in compiled.pattern.coefficient_names()
    }
    result, kwargs = None, {}
    if case.startswith("coefficient-depth-"):
        coefficients["C1"] = volume("C1d", int(case[-1]))
    elif case == "coefficient-rank-2":
        coefficients["C1"] = CMArray.from_numpy(
            "C1p", machine, np.ones((8, 8), np.float32)
        )
    elif case.startswith("result-depth-"):
        result = volume("R", int(case[-1]))
    elif case == "no-iterations":
        kwargs["iterations"] = 0
    elif case == "result-is-source":
        result = source.name
    elif case == "extra-term-not-a-depth-tap":
        compiled = fuse(
            pattern,
            [ExtraTerm(source="U", coeff=Coefficient.scalar(0.5))],
            machine.params,
        )
        volume("U", 3)
    before = snapshot(machine)
    expected = AliasingError if case == "result-is-source" else ExecutionSetupError
    with pytest.raises(expected) as raised:
        apply_stencil_3d(compiled, source, coefficients, result, **kwargs)
    assert any(entry.name == "check_call" for entry in raised.traceback)
    assert_unchanged(machine, before)


@pytest.mark.parametrize("door", ["solo", "batch"])
def test_a_result_named_as_a_fused_extra_source_is_rejected(door):
    """Allocating the result by that name would zero the input first;
    the in-place update passes the array itself."""
    machine, _, source, batch, coefficients = make_problem(
        gallery.cross5(), (8, 8)
    )
    fused = fuse(
        gallery.cross5(),
        [ExtraTerm(source="U", coeff=Coefficient.scalar(0.5))],
        machine.params,
    )
    CMArray.from_numpy("U", machine, np.ones((8, 8), np.float32))
    before = snapshot(machine)
    with pytest.raises(ExecutionSetupError, match="'U'"):
        call(door, fused, source, batch, coefficients, result="U")
    assert_unchanged(machine, before)


def test_a_solo_call_reads_resident_statement_named_coefficients():
    machine, compiled, source, _, coefficients = make_problem(
        gallery.cross5(), (16, 16)
    )
    passed = apply_stencil(
        compiled, source, coefficients, "R1", iterations=4, block_depth=2
    )
    resident = apply_stencil(
        compiled, source, None, "R2", iterations=4, block_depth=2
    )
    np.testing.assert_array_equal(
        resident.result.to_numpy(), passed.result.to_numpy()
    )
    assert resident.block_depths == passed.block_depths == (2,)
    for total in (
        "num_exchanges",
        "coeff_exchanges",
        "total_comm_cycles",
        "total_compute_cycles",
        "total_half_strips",
        "host_calls",
        "closed_form",
    ):
        assert getattr(resident, total) == getattr(passed, total), total
