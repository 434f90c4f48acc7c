"""Iterated-run semantics: ``iterations=k`` equals k sequential calls.

The result of iteration k is the source of iteration k+1, halos
re-exchanged from it each time, in both execution modes -- and the
source array itself is never modified.  Also covers the call-scoped
coefficient aliasing and the executor's extra-term shape validation.
"""

import numpy as np
import pytest

from repro.baseline.reference import reference_stencil
from repro.compiler.codegen import ExtraTerm
from repro.compiler.driver import compile_stencil
from repro.compiler.fusion import fuse
from repro.machine.machine import CM2
from repro.machine.params import MachineParams
from repro.runtime.cm_array import CMArray
from repro.runtime.executor import ExecutionSetupError
from repro.runtime.stencil_op import apply_stencil
from repro.stencil.gallery import cross, square
from repro.stencil.offsets import BoundaryMode
from repro.stencil.pattern import Coefficient, pattern_from_offsets

SHAPE = (16, 24)


def make_problem(pattern, *, num_nodes=4, seed=0, with_coeffs=True):
    params = MachineParams(num_nodes=num_nodes)
    machine = CM2(params)
    compiled = compile_stencil(pattern, params)
    rng = np.random.default_rng(seed)
    x_host = rng.standard_normal(SHAPE).astype(np.float32)
    coeff_host = {
        name: rng.standard_normal(SHAPE).astype(np.float32)
        for name in pattern.coefficient_names()
    }
    x = CMArray.from_numpy("X", machine, x_host)
    coeffs = {}
    if with_coeffs:
        coeffs = {
            name: CMArray.from_numpy(name, machine, data)
            for name, data in coeff_host.items()
        }
    return machine, compiled, x, coeffs, x_host, coeff_host


class TestIteratedSemantics:
    def test_iterated_equals_sequential_single_calls(self):
        machine, compiled, x, coeffs, _, _ = make_problem(cross(1))

        iterated = apply_stencil(compiled, x, coeffs, "R_ITER", iterations=3)

        current = x
        for k in range(3):
            single = apply_stencil(compiled, current, coeffs, f"R_SEQ{k}")
            current = single.result
        np.testing.assert_array_equal(
            iterated.result.to_numpy(), current.to_numpy()
        )

    def test_iterated_matches_numpy_reference_chain(self):
        machine, compiled, x, coeffs, x_host, coeff_host = make_problem(
            square(1), seed=5
        )
        run = apply_stencil(compiled, x, coeffs, "R", iterations=4)
        expected = x_host
        for _ in range(4):
            expected = reference_stencil(
                compiled.pattern, expected, coeff_host
            )
        np.testing.assert_array_equal(run.result.to_numpy(), expected)

    def test_exact_mode_iterates_identically(self):
        machine, compiled, x, coeffs, _, _ = make_problem(cross(1), seed=2)
        fast = apply_stencil(compiled, x, coeffs, "R_FAST", iterations=3)
        exact = apply_stencil(
            compiled, x, coeffs, "R_EXACT", iterations=3, exact=True
        )
        np.testing.assert_array_equal(
            exact.result.to_numpy(), fast.result.to_numpy()
        )

    def test_source_array_is_never_modified(self):
        machine, compiled, x, coeffs, x_host, _ = make_problem(
            cross(2), seed=9
        )
        apply_stencil(compiled, x, coeffs, "R", iterations=5)
        np.testing.assert_array_equal(x.to_numpy(), x_host)

    def test_fill_boundary_iterates_identically(self):
        pattern = pattern_from_offsets(
            [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)],
            name="cross5_fill",
            boundary={1: BoundaryMode.FILL, 2: BoundaryMode.FILL},
            fill_value=0.5,
        )
        machine, compiled, x, coeffs, x_host, coeff_host = make_problem(
            pattern, seed=11
        )
        run = apply_stencil(compiled, x, coeffs, "R", iterations=3)
        expected = x_host
        for _ in range(3):
            expected = reference_stencil(pattern, expected, coeff_host)
        np.testing.assert_array_equal(run.result.to_numpy(), expected)

    def test_fixed_point_short_circuit_is_invisible(self):
        """Zero data reaches a fixed point after one iteration; the run
        must still report every iteration's cost and the same result a
        full run would produce (all zeros with all-zero coefficients
        would be trivial, so use a constant-coefficient identity)."""
        pattern = pattern_from_offsets([(0, 0)], name="identity")
        params = MachineParams(num_nodes=4)
        machine = CM2(params)
        compiled = compile_stencil(pattern, params)
        rng = np.random.default_rng(3)
        x_host = rng.standard_normal(SHAPE).astype(np.float32)
        x = CMArray.from_numpy("X", machine, x_host)
        coeffs = {
            "C1": CMArray.from_numpy(
                "C1", machine, np.ones(SHAPE, dtype=np.float32)
            )
        }
        run = apply_stencil(compiled, x, coeffs, "R", iterations=50)
        np.testing.assert_array_equal(run.result.to_numpy(), x_host)
        assert run.iterations == 50
        fifty = run.elapsed_seconds
        one = apply_stencil(compiled, x, coeffs, "R1").elapsed_seconds
        assert fifty == pytest.approx(50 * one)


class TestCoefficientAliasScoping:
    def test_aliases_do_not_leak_after_the_call(self):
        machine, compiled, x, _, x_host, _ = make_problem(
            cross(1), with_coeffs=False
        )
        rng = np.random.default_rng(21)
        named = {
            stmt: CMArray.from_numpy(
                f"K{i}", machine, rng.standard_normal(SHAPE).astype(np.float32)
            )
            for i, stmt in enumerate(compiled.pattern.coefficient_names())
        }
        apply_stencil(compiled, x, named, "R")
        for stmt in compiled.pattern.coefficient_names():
            for node in machine.nodes():
                assert node.memory.view(stmt) is None
            assert machine.storage.get(stmt) is None

    def test_rebinding_to_a_different_array_uses_new_values(self):
        machine, compiled, x, _, x_host, _ = make_problem(cross(1))
        statement_names = compiled.pattern.coefficient_names()
        rng = np.random.default_rng(22)
        host_a = {s: rng.standard_normal(SHAPE).astype(np.float32)
                  for s in statement_names}
        host_b = {s: rng.standard_normal(SHAPE).astype(np.float32)
                  for s in statement_names}
        arrays_a = {
            s: CMArray.from_numpy(f"A_{s}", machine, host_a[s])
            for s in statement_names
        }
        arrays_b = {
            s: CMArray.from_numpy(f"B_{s}", machine, host_b[s])
            for s in statement_names
        }
        run_a = apply_stencil(compiled, x, arrays_a, "RA")
        run_b = apply_stencil(compiled, x, arrays_b, "RB")
        np.testing.assert_array_equal(
            run_a.result.to_numpy(),
            reference_stencil(compiled.pattern, x.to_numpy(), host_a),
        )
        np.testing.assert_array_equal(
            run_b.result.to_numpy(),
            reference_stencil(compiled.pattern, x.to_numpy(), host_b),
        )

    def test_preexisting_binding_is_restored(self):
        """A buffer that already exists under a statement name survives a
        call that temporarily aliases the name elsewhere."""
        machine, compiled, x, _, _, _ = make_problem(cross(1))
        statement_names = compiled.pattern.coefficient_names()
        first = statement_names[0]
        rng = np.random.default_rng(23)
        original_host = rng.standard_normal(SHAPE).astype(np.float32)
        original = CMArray.from_numpy(first, machine, original_host)
        arrays = {
            s: CMArray.from_numpy(f"N_{s}",
                                  machine,
                                  rng.standard_normal(SHAPE).astype(np.float32))
            for s in statement_names
        }
        apply_stencil(compiled, x, arrays, "R")
        np.testing.assert_array_equal(original.to_numpy(), original_host)


class TestExtraTermValidation:
    def fused_setup(self, *, num_nodes=4):
        params = MachineParams(num_nodes=num_nodes)
        machine = CM2(params)
        fused = fuse(
            cross(1),
            [ExtraTerm(source="Y", coeff=Coefficient.array("CY"))],
            params,
        )
        rng = np.random.default_rng(31)
        x = CMArray.from_numpy(
            "X", machine, rng.standard_normal(SHAPE).astype(np.float32)
        )
        coeffs = {
            name: CMArray.from_numpy(
                name, machine, rng.standard_normal(SHAPE).astype(np.float32)
            )
            for name in fused.pattern.coefficient_names()
        }
        return machine, fused, x, coeffs

    def test_missing_extra_source_is_reported(self):
        machine, fused, x, coeffs = self.fused_setup()
        with pytest.raises(ExecutionSetupError, match="extra-source.*'Y'"):
            apply_stencil(fused, x, coeffs, "R")

    def test_wrong_shape_extra_source_is_reported(self):
        machine, fused, x, coeffs = self.fused_setup()
        # Same machine, different global shape: the subgrids disagree.
        CMArray("Y", machine, (SHAPE[0] * 2, SHAPE[1]))
        with pytest.raises(ExecutionSetupError, match="subgrid shape"):
            apply_stencil(fused, x, coeffs, "R")

    def test_wrong_shape_coefficient_is_reported(self):
        machine, fused, x, coeffs = self.fused_setup()
        CMArray("Y", machine, SHAPE)
        coeffs["CY"] = CMArray("CY_BAD", machine, (SHAPE[0] * 2, SHAPE[1]))
        with pytest.raises(ExecutionSetupError, match="shape"):
            apply_stencil(fused, x, coeffs, "R")

    def test_valid_fused_setup_runs(self):
        machine, fused, x, coeffs = self.fused_setup()
        rng = np.random.default_rng(32)
        CMArray.from_numpy(
            "Y", machine, rng.standard_normal(SHAPE).astype(np.float32)
        )
        apply_stencil(fused, x, coeffs, "R")


class TestFixedPointCheck:
    """The fixed-point check compares node row by node row and stops at
    the first row that differs; only an iterate equal to its input in
    every row short-circuits the run."""

    @staticmethod
    def _identity_run(c1_host, monkeypatch, iterations=4):
        from repro.runtime import batch

        pattern = pattern_from_offsets([(0, 0)], name="identity")
        params = MachineParams(num_nodes=16)
        machine = CM2(params)
        compiled = compile_stencil(pattern, params)
        x_host = (
            np.random.default_rng(8).uniform(1.0, 2.0, SHAPE).astype(np.float32)
        )
        x = CMArray.from_numpy("X", machine, x_host)
        c1 = CMArray.from_numpy("C1", machine, c1_host)
        passes = []
        real = batch.machine_execute_fast_stack

        def counted(*args, **kwargs):
            passes.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(batch, "machine_execute_fast_stack", counted)
        run = apply_stencil(
            compiled, x, {"C1": c1}, "R", iterations=iterations
        )
        expected = x_host
        for _ in range(iterations):
            expected = reference_stencil(pattern, expected, {"C1": c1_host})
        np.testing.assert_array_equal(run.result.to_numpy(), expected)
        return run, len(passes)

    @staticmethod
    def _totals(run):
        return (
            run.elapsed_seconds,
            run.num_exchanges,
            run.total_comm_cycles,
            run.total_compute_cycles,
            run.total_half_strips,
        )

    def test_difference_in_last_node_row_is_not_a_fixed_point(
        self, monkeypatch
    ):
        # 16 nodes in a 4x4 grid: global rows 12-15 are the last node
        # row, and only its last point changes from one iterate to the
        # next.
        c1 = np.ones(SHAPE, dtype=np.float32)
        c1[-1, -1] = 0.5
        _, passes = self._identity_run(c1, monkeypatch)
        assert passes == 4

    def test_fixed_point_short_circuits_with_same_totals(self, monkeypatch):
        moving = np.ones(SHAPE, dtype=np.float32)
        moving[-1, -1] = 0.5
        full, _ = self._identity_run(moving, monkeypatch)
        fixed, passes = self._identity_run(
            np.ones(SHAPE, dtype=np.float32), monkeypatch
        )
        assert passes == 1
        assert self._totals(fixed) == self._totals(full)

    def test_values_equal_row_by_row(self):
        from repro.runtime.executor import values_equal

        rng = np.random.default_rng(9)
        for lead in ((), (3,)):
            a = rng.standard_normal(lead + (4, 2, 3, 5)).astype(np.float32)
            b = a.copy()
            assert values_equal(a, b)
            b[..., -1, -1, -1, -1] += 1.0
            assert not values_equal(a, b)
            a[..., 0, 0, 0, 0] = np.nan
            assert not values_equal(a, a.copy())
