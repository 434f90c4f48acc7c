"""Fault injection, detection, and recovery: the chaos suite.

The contract under test is the acceptance property of the resilient
runtime: for every fault kind, boundary mode, and execution mode, a
seeded chaos run either produces output bit-identical (float32) to the
fault-free run or raises a typed :class:`FaultError` -- never silent
corruption.  With injection disabled, the guard's accounting reproduces
the closed-form fault-free totals exactly and ``FaultStats`` stays
all-zero.

``CHAOS_SEED`` parameterizes the whole suite from the environment so CI
can sweep distinct seeds (see the chaos job in ci.yml).
"""

import os

import numpy as np
import pytest

from repro.compiler.driver import (
    clear_compile_cache,
    compile_stencil,
    depth_cache_info,
    select_block_depth,
)
from repro.machine.machine import CM2
from repro.machine.params import MachineParams
from repro.runtime.cm_array import CMArray
from repro.runtime.faults import (
    ALL_FAULT_KINDS,
    TRANSIENT_FAULT_KINDS,
    FaultError,
    FaultInjector,
    FaultKind,
    FaultStats,
    NonFiniteInputError,
    ResiliencePolicy,
    RetryExhaustedError,
)
from repro.runtime.stencil_op import apply_stencil
from repro.analysis.timing import report
from repro.stencil.gallery import cross, square
from repro.stencil.offsets import BoundaryMode
from repro.stencil.pattern import pattern_from_offsets

#: CI sweeps this; locally it defaults to 0.
CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

SHAPE = (16, 24)  # 4 nodes -> 2x2 grid of 8x12 subgrids
ITERATIONS = 7  # not a multiple of the tested block depth: tail block
NO_CHECKPOINTS = ResiliencePolicy(checkpoint_interval=0)


def boundary_variant(pattern, mode, fill_value=0.0):
    modes = {
        "torus": {1: BoundaryMode.CIRCULAR, 2: BoundaryMode.CIRCULAR},
        "fill": {1: BoundaryMode.FILL, 2: BoundaryMode.FILL},
    }[mode]
    return pattern_from_offsets(
        [tap.offset for tap in pattern.taps],
        name=f"{pattern.name}_{mode}",
        boundary=modes,
        fill_value=fill_value,
    )


def make_problem(pattern, *, num_nodes=4, seed=0, shape=SHAPE):
    params = MachineParams(num_nodes=num_nodes)
    machine = CM2(params)
    compiled = compile_stencil(pattern, params)
    rng = np.random.default_rng(seed)
    x = CMArray.from_numpy(
        "X", machine, rng.standard_normal(shape).astype(np.float32)
    )
    coeffs = {
        name: CMArray.from_numpy(
            name, machine, rng.standard_normal(shape).astype(np.float32)
        )
        for name in pattern.coefficient_names()
    }
    return machine, compiled, x, coeffs


def reference_result(pattern, **kwargs):
    """The fault-free answer every chaos run must reproduce bitwise."""
    _, compiled, x, coeffs = make_problem(pattern)
    run = apply_stencil(compiled, x, coeffs, "R_REF", iterations=ITERATIONS,
                        **kwargs)
    return run, run.result.to_numpy()


class TestBlockDepthValidation:
    @pytest.mark.parametrize("bad", [0, -1, -7, True, False])
    def test_non_positive_or_bool_rejected(self, bad):
        pattern = boundary_variant(cross(1), "torus")
        _, compiled, x, coeffs = make_problem(pattern)
        with pytest.raises(ValueError, match="block_depth"):
            apply_stencil(compiled, x, coeffs, iterations=3, block_depth=bad)

    @pytest.mark.parametrize("bad", ["fast", "AUTO ", "", 2.5, None])
    def test_non_auto_strings_and_floats_rejected(self, bad):
        pattern = boundary_variant(cross(1), "torus")
        _, compiled, x, coeffs = make_problem(pattern)
        with pytest.raises(ValueError, match="block_depth"):
            apply_stencil(compiled, x, coeffs, iterations=3, block_depth=bad)


class TestCheckFinite:
    def test_nan_source_rejected_by_name(self):
        pattern = boundary_variant(cross(1), "torus")
        _, compiled, x, coeffs = make_problem(pattern)
        data = x.to_numpy()
        data[3, 5] = np.nan
        x.set(data)
        with pytest.raises(NonFiniteInputError, match="'X'"):
            apply_stencil(compiled, x, coeffs, check_finite=True)
        # The same call without the opt-in check runs (NaN propagates).
        apply_stencil(compiled, x, coeffs)

    def test_inf_coefficient_rejected_by_name(self):
        pattern = boundary_variant(cross(1), "torus")
        _, compiled, x, coeffs = make_problem(pattern)
        name = pattern.coefficient_names()[0]
        data = coeffs[name].to_numpy()
        data[0, 0] = np.inf
        coeffs[name].set(data)
        with pytest.raises(NonFiniteInputError, match=repr(name)):
            apply_stencil(compiled, x, coeffs, check_finite=True)

    def test_coefficients_checked_under_their_own_names(self):
        """Coefficient arrays passed under another name than the
        statement's are checked as the caller's arrays (the statement
        names are bound to them only once the run starts)."""
        pattern = boundary_variant(cross(1), "torus")
        machine, compiled, x, coeffs = make_problem(pattern)
        renamed = {
            name: CMArray.from_numpy(f"W_{name}", machine, array.to_numpy())
            for name, array in coeffs.items()
        }
        run = apply_stencil(compiled, x, renamed, "R", check_finite=True)
        expected = apply_stencil(compiled, x, coeffs, "R_REF")
        np.testing.assert_array_equal(
            run.result.to_numpy(), expected.result.to_numpy()
        )
        first = pattern.coefficient_names()[0]
        data = renamed[first].to_numpy()
        data[0, 0] = np.nan
        renamed[first].set(data)
        with pytest.raises(NonFiniteInputError, match=f"'W_{first}'"):
            apply_stencil(compiled, x, renamed, "R", check_finite=True)

    def test_clean_inputs_pass(self):
        pattern = boundary_variant(square(1), "fill")
        _, compiled, x, coeffs = make_problem(pattern)
        run = apply_stencil(
            compiled, x, coeffs, iterations=2, check_finite=True
        )
        _, expected = reference_result(pattern)
        del expected  # different iteration count; just assert it ran
        assert np.isfinite(run.result.to_numpy()).all()


class TestInjectorDeterminism:
    def test_same_seed_same_faults_same_result(self):
        pattern = boundary_variant(cross(2), "torus")
        # Transient kinds only: hard faults on a spare-less machine
        # raise the typed NoSpareError by design (see test_hard_faults).
        rates = {kind: 0.3 for kind in TRANSIENT_FAULT_KINDS}
        outputs = []
        for _ in range(2):
            _, compiled, x, coeffs = make_problem(pattern)
            run = apply_stencil(
                compiled, x, coeffs, "R_CHAOS",
                iterations=ITERATIONS, block_depth=3,
                faults=FaultInjector(seed=CHAOS_SEED, rates=rates),
            )
            outputs.append(
                (run.result.to_numpy(), run.fault_stats.events,
                 run.total_comm_cycles, run.total_compute_cycles)
            )
        (out_a, events_a, comm_a, compute_a) = outputs[0]
        (out_b, events_b, comm_b, compute_b) = outputs[1]
        assert np.array_equal(out_a, out_b)
        assert events_a == events_b
        assert comm_a == comm_b
        assert compute_a == compute_b

    def test_rates_accept_enum_and_string_keys(self):
        by_enum = FaultInjector(rates={FaultKind.HALO_DROP: 0.5})
        by_str = FaultInjector(rates={"halo_drop": 0.5})
        assert by_enum.rates == by_str.rates


EXECUTION_MODES = [
    ("blocked", dict(block_depth=3)),
    ("unblocked", dict()),
    ("exact", dict(exact=True)),
]


class TestChaosProperty:
    """The acceptance matrix: every kind x boundary x execution mode is
    bit-identical to fault-free or a typed FaultError -- never silently
    wrong."""

    @pytest.mark.parametrize("kind", ALL_FAULT_KINDS)
    @pytest.mark.parametrize("mode", ["torus", "fill"])
    @pytest.mark.parametrize("exec_name,exec_kwargs", EXECUTION_MODES)
    def test_bit_identical_or_typed_error(
        self, kind, mode, exec_name, exec_kwargs
    ):
        pattern = boundary_variant(cross(1), mode, fill_value=1.5)
        _, expected = reference_result(pattern)
        _, compiled, x, coeffs = make_problem(pattern)
        injector = FaultInjector(seed=CHAOS_SEED, rates={kind: 0.25})
        # SDC is only injectable under ABFT (the guard rejects the
        # combination otherwise -- silent corruption with no detector
        # would void the property under test).
        resilience = (
            ResiliencePolicy(abft=True)
            if kind == FaultKind.SDC.value
            else None
        )
        try:
            run = apply_stencil(
                compiled, x, coeffs, "R_CHAOS", iterations=ITERATIONS,
                faults=injector, resilience=resilience, **exec_kwargs,
            )
        except FaultError:
            return  # surfaced, not silent: the property holds
        assert np.array_equal(run.result.to_numpy(), expected)
        assert run.fault_stats.total_injected == injector.total_injected

    def test_source_array_survives_chaos(self):
        """Recovery replays from the source, so it must stay pristine."""
        pattern = boundary_variant(square(1), "torus")
        _, compiled, x, coeffs = make_problem(pattern)
        before = x.to_numpy()
        # Transient kinds only: NODE_DEAD genuinely destroys the dead
        # node's tile of the source, and without a spare the run ends in
        # a typed error with the tile still lost (see test_hard_faults
        # for the spare-backed bit-restoration property).
        rates = {kind: 0.4 for kind in TRANSIENT_FAULT_KINDS}
        try:
            apply_stencil(
                compiled, x, coeffs, "R_CHAOS", iterations=ITERATIONS,
                block_depth=2,
                faults=FaultInjector(seed=CHAOS_SEED, rates=rates),
            )
        except FaultError:
            pass
        assert np.array_equal(x.to_numpy(), before)


class TestTargetedRecovery:
    def test_single_halo_corruption_is_retried(self):
        pattern = boundary_variant(cross(1), "torus")
        clean_run, expected = reference_result(pattern)
        _, compiled, x, coeffs = make_problem(pattern)
        run = apply_stencil(
            compiled, x, coeffs, "R_CHAOS", iterations=ITERATIONS,
            faults=FaultInjector(
                seed=CHAOS_SEED, rates={"halo_corrupt": 1.0}, max_faults=1
            ),
            resilience=NO_CHECKPOINTS,
        )
        stats = run.fault_stats
        assert np.array_equal(run.result.to_numpy(), expected)
        assert stats.injected == {"halo_corrupt": 1}
        assert stats.detected.get("halo_checksum") == 1
        assert stats.retries == 1
        assert stats.retry_cycles > 0
        # The retry's traffic lands in the honest totals.
        assert run.total_comm_cycles > clean_run.total_comm_cycles

    def test_persistent_halo_corruption_exhausts_retries(self):
        pattern = boundary_variant(cross(1), "torus")
        _, compiled, x, coeffs = make_problem(pattern)
        with pytest.raises(RetryExhaustedError):
            apply_stencil(
                compiled, x, coeffs, iterations=2,
                faults=FaultInjector(
                    seed=CHAOS_SEED, rates={"halo_corrupt": 1.0}
                ),
            )

    def test_dropped_deep_halo_is_retried(self):
        pattern = boundary_variant(cross(1), "fill", fill_value=2.0)
        _, expected = reference_result(pattern)
        _, compiled, x, coeffs = make_problem(pattern)
        run = apply_stencil(
            compiled, x, coeffs, "R_CHAOS", iterations=ITERATIONS,
            block_depth=3,
            faults=FaultInjector(
                seed=CHAOS_SEED, rates={"halo_drop": 1.0}, max_faults=1
            ),
        )
        assert np.array_equal(run.result.to_numpy(), expected)
        assert run.fault_stats.retries >= 1

    def test_persistent_poison_degrades_to_exact(self):
        pattern = boundary_variant(cross(1), "torus")
        _, expected = reference_result(pattern)
        _, compiled, x, coeffs = make_problem(pattern)
        run = apply_stencil(
            compiled, x, coeffs, "R_CHAOS", iterations=ITERATIONS,
            faults=FaultInjector(
                seed=CHAOS_SEED, rates={"node_poison": 1.0}
            ),
        )
        stats = run.fault_stats
        assert stats.degradations == ("fast->exact",)
        assert run.exact  # the run finished on the ECC-protected rung
        assert stats.recomputes > 0
        assert stats.rollbacks > 0
        assert np.array_equal(run.result.to_numpy(), expected)

    def test_scratch_parity_degrades_blocked_to_fast(self):
        class CenterFlip(FaultInjector):
            """Deterministically flip the just-sealed pong stack's
            center, which the next sub-iteration (or the post-loop
            verify) always reads."""

            def inject_scratch(self, buffers):
                label, buffer = buffers[1]  # pong: dst of sub-iteration 0
                center = tuple(extent // 2 for extent in buffer.shape)
                buffer.view(np.uint32)[center] ^= np.uint32(1)
                return [self._record(
                    FaultKind.SCRATCH_BITFLIP, label, "center bit 0"
                )]

        pattern = boundary_variant(cross(1), "torus")
        _, expected = reference_result(pattern)
        _, compiled, x, coeffs = make_problem(pattern)
        run = apply_stencil(
            compiled, x, coeffs, "R_CHAOS", iterations=ITERATIONS,
            block_depth=3,
            faults=CenterFlip(seed=CHAOS_SEED),
            resilience=ResiliencePolicy(max_replays=0),
        )
        stats = run.fault_stats
        assert "blocked->fast" in stats.degradations
        assert stats.detected.get("parity", 0) >= 1
        assert np.array_equal(run.result.to_numpy(), expected)

    def test_rollback_restores_periodic_checkpoint(self):
        class PoisonOnPass(FaultInjector):
            """Poison exactly one executor pass, chosen so it lands
            after the iteration-2 checkpoint."""

            def __init__(self, fire_on_pass):
                super().__init__(seed=0)
                self.passes = 0
                self.fire_on_pass = fire_on_pass

            def inject_poison(self, result_stack):
                self.passes += 1
                if self.passes != self.fire_on_pass:
                    return []
                result_stack[0, 0] = np.float32(np.nan)
                return [self._record(
                    FaultKind.NODE_POISON, "node(0,0)", "scripted"
                )]

        pattern = boundary_variant(cross(1), "torus")
        _, expected = reference_result(pattern)
        _, compiled, x, coeffs = make_problem(pattern)
        run = apply_stencil(
            compiled, x, coeffs, "R_CHAOS", iterations=ITERATIONS,
            faults=PoisonOnPass(fire_on_pass=4),  # iteration index 3
            resilience=ResiliencePolicy(max_retries=0, checkpoint_interval=2),
        )
        stats = run.fault_stats
        assert stats.checkpoints >= 1
        assert stats.checkpoint_cycles > 0
        assert stats.rollbacks == 1
        # Rolled back from iteration 3 to the k=2 checkpoint: iterations
        # 2 and 3 ran twice.
        assert stats.replayed_iterations == 2
        assert np.array_equal(run.result.to_numpy(), expected)

    def test_report_row_shows_chaos_accounting(self):
        pattern = boundary_variant(cross(1), "torus")
        _, compiled, x, coeffs = make_problem(pattern)
        run = apply_stencil(
            compiled, x, coeffs, "R_CHAOS", iterations=ITERATIONS,
            faults=FaultInjector(
                seed=CHAOS_SEED, rates={"halo_corrupt": 1.0}, max_faults=1
            ),
        )
        row = report(run).row()
        assert "[chaos: 1 injected, 1 detected, 1 retries" in row
        clean = apply_stencil(compiled, x, coeffs, iterations=1)
        assert "chaos" not in report(clean).row()


class TestGuardedIdentity:
    """Guarding without faults must change nothing: bitwise results and
    cycle totals equal to the unguarded closed-form accounting."""

    @pytest.mark.parametrize("exec_kwargs", [dict(), dict(block_depth=3)])
    def test_guarded_totals_match_unguarded(self, exec_kwargs):
        pattern = boundary_variant(square(1), "torus")
        _, compiled, x, coeffs = make_problem(pattern)
        plain = apply_stencil(
            compiled, x, coeffs, "R_PLAIN", iterations=ITERATIONS,
            **exec_kwargs,
        )
        _, compiled2, x2, coeffs2 = make_problem(pattern)
        guarded = apply_stencil(
            compiled2, x2, coeffs2, "R_GUARD", iterations=ITERATIONS,
            resilience=NO_CHECKPOINTS, **exec_kwargs,
        )
        assert np.array_equal(
            guarded.result.to_numpy(), plain.result.to_numpy()
        )
        assert guarded.num_exchanges == plain.num_exchanges
        assert guarded.total_comm_cycles == plain.total_comm_cycles
        assert guarded.total_compute_cycles == plain.total_compute_cycles
        assert guarded.fault_stats.all_zero()

    def test_checkpoints_cost_compute_but_not_results(self):
        pattern = boundary_variant(cross(1), "torus")
        _, expected = reference_result(pattern)
        _, compiled, x, coeffs = make_problem(pattern)
        run = apply_stencil(
            compiled, x, coeffs, "R_CKPT", iterations=ITERATIONS,
            resilience=ResiliencePolicy(checkpoint_interval=2),
        )
        stats = run.fault_stats
        assert np.array_equal(run.result.to_numpy(), expected)
        assert stats.checkpoints == 3  # after iterations 2, 4, 6
        assert stats.checkpoint_cycles > 0
        assert not stats.all_zero()
        assert stats.total_injected == 0

    def test_default_run_carries_no_fault_state(self):
        pattern = boundary_variant(cross(1), "torus")
        _, compiled, x, coeffs = make_problem(pattern)
        run = apply_stencil(compiled, x, coeffs, iterations=2)
        assert isinstance(run.fault_stats, FaultStats)
        assert run.fault_stats.all_zero()


class TestDepthCache:
    def test_auto_depth_selection_is_memoized(self):
        clear_compile_cache()
        pattern = boundary_variant(cross(1), "torus")
        _, compiled, x, coeffs = make_problem(pattern)
        assert depth_cache_info() == (0, 0, 0)
        depth = select_block_depth(compiled, x.subgrid_shape, ITERATIONS)
        assert depth_cache_info() == (0, 1, 1)
        again = select_block_depth(compiled, x.subgrid_shape, ITERATIONS)
        assert again == depth
        assert depth_cache_info() == (1, 1, 1)
        clear_compile_cache()
        assert depth_cache_info() == (0, 0, 0)
