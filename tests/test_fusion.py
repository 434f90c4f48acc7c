"""Tests for fused multi-source stencils (the paper's future work)."""

from collections import Counter

import numpy as np
import pytest

from repro.baseline.reference import reference_stencil
from repro.compiler.codegen import ExtraTerm
from repro.compiler.driver import compile_stencil
from repro.compiler.fusion import fuse
from repro.compiler.plan import StencilCompileError
from repro.machine.machine import CM2
from repro.machine.params import MachineParams
from repro.runtime.cm_array import CMArray
from repro.runtime.executor import ExecutionSetupError
from repro.runtime.stencil_op import apply_stencil
from repro.stencil.gallery import cross5, cross9, square9
from repro.stencil.pattern import Coefficient, StencilPattern


def term(source="Y", coeff_name="CY"):
    return ExtraTerm(source=source, coeff=Coefficient.array(coeff_name))


def fused_problem(pattern, extra_terms, shape=(16, 24), seed=0, nodes=4):
    params = MachineParams(num_nodes=nodes)
    machine = CM2(params)
    rng = np.random.default_rng(seed)
    fused = fuse(pattern, extra_terms, params)
    x = rng.standard_normal(shape).astype(np.float32)
    arrays = {"X": CMArray.from_numpy("X", machine, x)}
    host = {"X": x}
    for t in extra_terms:
        data = rng.standard_normal(shape).astype(np.float32)
        arrays[t.source] = CMArray.from_numpy(t.source, machine, data)
        host[t.source] = data
    coeffs = {}
    for name in fused.pattern.coefficient_names():
        data = rng.standard_normal(shape).astype(np.float32)
        coeffs[name] = CMArray.from_numpy(name, machine, data)
        host[name] = data
    return fused, arrays, coeffs, host


def expected_result(pattern, extra_terms, host):
    base_coeffs = {
        name: host[name] for name in pattern.coefficient_names()
    }
    acc = reference_stencil(pattern, host["X"], base_coeffs)
    for t in extra_terms:
        product = (
            host[t.coeff.name].astype(np.float32)
            * host[t.source].astype(np.float32)
        ).astype(np.float32)
        acc = (acc + product).astype(np.float32)
    return acc


def with_terms(base, extra_terms):
    return StencilPattern(base.taps, name=base.name, extra_terms=extra_terms)


class TestFusedPattern:
    def test_requires_extra_terms(self):
        with pytest.raises(ValueError):
            fuse(cross5(), [])

    def test_rejects_primary_source_as_extra(self):
        with pytest.raises(ValueError, match="primary source"):
            with_terms(cross5(), [term(source="X")])

    def test_flop_accounting_extended(self):
        fused = with_terms(cross9(), [term()])
        assert fused.useful_flops_per_point() == 17 + 2
        assert fused.issued_multiply_adds_per_point() == 10

    def test_coefficient_names_extended(self):
        fused = with_terms(cross5(), [term(coeff_name="C10")])
        assert fused.coefficient_names()[-1] == "C10"

    def test_geometry_delegates_to_base(self):
        fused = with_terms(cross9(), [term()])
        assert fused.border_widths().as_tuple() == (2, 2, 2, 2)
        assert not fused.needs_corner_exchange()


class TestOnePattern:
    def test_plan_cache_tells_extra_terms_apart(self):
        """A same-named pattern with the same taps plus an extra term is a
        different statement: it gets its own plan, whose every chain
        closes with the extra term, and its own bits."""
        from repro.machine.isa import MAOp

        params = MachineParams(num_nodes=4)
        base = cross5()
        plain = compile_stencil(base, params)
        pattern = with_terms(base, [term()])
        assert pattern.name == base.name
        assert pattern != base and hash(pattern) != hash(base)
        fused = compile_stencil(pattern, params)
        assert fused is not plain
        for plan in fused.plans.values():
            for line in (plan.prologue,) + plan.steady:
                chains = Counter(
                    op.result_col for op in line.ops if isinstance(op, MAOp)
                )
                assert set(chains.values()) == {len(base.taps) + 1}
        machine = CM2(params)
        rng = np.random.default_rng(3)
        host = {
            name: rng.standard_normal((16, 24)).astype(np.float32)
            for name in ("X", "Y") + pattern.coefficient_names()
        }
        arrays = {
            name: CMArray.from_numpy(name, machine, data)
            for name, data in host.items()
        }
        coeffs = {name: arrays[name] for name in pattern.coefficient_names()}
        run = apply_stencil(fused, arrays["X"], coeffs, "R")
        np.testing.assert_array_equal(
            run.result.to_numpy(), expected_result(base, [term()], host)
        )


class TestFusedCompilation:
    def test_extra_registers_reject_wide_plans(self):
        """cross5 w8 uses 26 rings; +8 extra registers exceeds 32."""
        fused = fuse(cross5(), [term()])
        assert 8 not in fused.plans
        assert "registers" in fused.rejections[8]
        assert fused.max_width == 4

    def test_square9_cannot_fuse_wide(self):
        """square9 w8 uses 30 rings; no room for 8 extra registers."""
        fused = fuse(square9(), [term()])
        assert fused.max_width == 4

    def test_two_extra_terms_compile(self):
        fused = fuse(cross5(), [term("Y", "CY"), term("Z", "CZ")])
        assert fused.max_width >= 2

    def test_impossibly_many_terms_raise(self):
        terms = [term(f"Y{i}", f"CY{i}") for i in range(30)]
        with pytest.raises(StencilCompileError):
            fuse(cross5(), terms)

    def test_line_patterns_contain_extra_loads(self):
        from repro.machine.isa import LoadOp

        fused = fuse(cross5(), [term()])
        plan = fused.plans[fused.max_width]
        extra_loads = [
            op
            for op in plan.steady[0].ops
            if isinstance(op, LoadOp) and op.buffer == "Y"
        ]
        assert len(extra_loads) == plan.width

    def test_chain_length_includes_extra_terms(self):
        from repro.machine.isa import MAOp

        fused = fuse(cross5(), [term()])
        plan = fused.plans[fused.max_width]
        ma = [op for op in plan.steady[0].ops if isinstance(op, MAOp)]
        per_result = [op for op in ma if op.result_col == 0]
        assert len(per_result) == 6  # 5 taps + 1 fused term
        assert per_result[-1].last
        assert not per_result[-2].last

    def test_fusing_a_fused_pattern_keeps_its_terms(self):
        from repro.machine.isa import MAOp

        once = fuse(cross5(), [term("Y", "CY")])
        twice = fuse(once.pattern, [term("Z", "CZ")])
        assert twice.pattern.extra_terms == (term("Y", "CY"), term("Z", "CZ"))
        plan = twice.plans[twice.max_width]
        chain = [
            op for op in plan.steady[0].ops
            if isinstance(op, MAOp) and op.result_col == 0
        ]
        assert [op.coeff.name for op in chain[-2:]] == ["CY", "CZ"]

    def test_describe(self):
        fused = fuse(cross5(), [term()])
        assert "fused" in fused.describe()


class TestFusedExecution:
    @pytest.mark.parametrize("pattern_fn", [cross5, cross9])
    def test_fast_matches_reference(self, pattern_fn):
        pattern = pattern_fn()
        terms = [term()]
        fused, arrays, coeffs, host = fused_problem(pattern, terms)
        run = apply_stencil(fused, arrays["X"], coeffs, "R")
        np.testing.assert_array_equal(
            run.result.to_numpy(), expected_result(pattern, terms, host)
        )

    def test_exact_matches_fast_and_cycles(self):
        pattern = cross5()
        terms = [term()]
        fused, arrays, coeffs, host = fused_problem(pattern, terms)
        fast = apply_stencil(fused, arrays["X"], coeffs, "RF")
        exact = apply_stencil(fused, arrays["X"], coeffs, "RE", exact=True)
        np.testing.assert_array_equal(
            exact.result.to_numpy(), fast.result.to_numpy()
        )
        assert exact.compute_cycles == fast.compute_cycles

    def test_two_extra_terms_numerics(self):
        pattern = cross5()
        terms = [term("Y", "CY"), term("Z", "CZ")]
        fused, arrays, coeffs, host = fused_problem(pattern, terms, seed=5)
        run = apply_stencil(fused, arrays["X"], coeffs, "R")
        np.testing.assert_array_equal(
            run.result.to_numpy(), expected_result(pattern, terms, host)
        )

    def test_missing_extra_source_rejected(self):
        pattern = cross5()
        fused, arrays, coeffs, _ = fused_problem(pattern, [term()])
        # Build a fresh machine without the Y array.
        params = MachineParams(num_nodes=4)
        machine = CM2(params)
        x = CMArray("X", machine, (16, 24))
        missing_coeffs = {
            name: CMArray(name, machine, (16, 24))
            for name in fused.pattern.coefficient_names()
        }
        with pytest.raises(ExecutionSetupError, match="extra-source"):
            apply_stencil(fused, x, missing_coeffs, "R")

    def test_fused_flop_accounting_in_run(self):
        pattern = cross5()
        fused, arrays, coeffs, _ = fused_problem(pattern, [term()])
        run = apply_stencil(fused, arrays["X"], coeffs, "R")
        assert run.useful_flops == 16 * 24 * (9 + 2)


class TestFusedSeismic:
    def test_all_three_loops_bit_identical(self):
        from repro.apps.seismic import SeismicModel, ricker_wavelet

        wavelet = ricker_wavelet(8, 0.001)
        fields = {}
        for runner in ("run_copy_loop", "run_unrolled_loop", "run_fused_loop"):
            machine = CM2(MachineParams(num_nodes=4))
            model = SeismicModel(
                machine, (16, 32), dt=0.001, dx=10.0, source=(8, 16)
            )
            model.set_initial_pulse(sigma=2.0)
            getattr(model, runner)(8, wavelet)
            fields[runner] = model.wavefield()
        np.testing.assert_array_equal(
            fields["run_copy_loop"], fields["run_fused_loop"]
        )
        np.testing.assert_array_equal(
            fields["run_unrolled_loop"], fields["run_fused_loop"]
        )

    def test_fused_is_fastest(self):
        """Fusing beats unrolling beats copying (the paper's future
        work pays off on top of its measured result)."""
        from repro.apps.seismic import SeismicModel

        rates = {}
        for runner in ("run_copy_loop", "run_unrolled_loop", "run_fused_loop"):
            machine = CM2(MachineParams(num_nodes=4))
            model = SeismicModel(machine, (16, 32), dt=0.001, dx=10.0)
            model.set_initial_pulse()
            getattr(model, runner)(6)
            rates[runner] = model.timing.gflops
        assert (
            rates["run_fused_loop"]
            > rates["run_unrolled_loop"]
            > rates["run_copy_loop"]
        )
