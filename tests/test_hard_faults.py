"""Hard faults: dead nodes, dead links, slow nodes -- and surviving them.

The acceptance property: on a machine configured with spares, killing
any single node (or link) at any point of a run recovers bit-identically
in float32 against the fault-free reference; with no spare available the
run ends in a *typed* ``FaultError`` -- never silent corruption.  All
recovery actions are charged, and the charged totals reconcile exactly
as ``fault-free closed form + recovery buckets``.

``CHAOS_SEED`` parameterizes the random campaigns from the environment
so CI can sweep seeds without code changes.
"""

import os

import numpy as np
import pytest

from repro.analysis.chaos import ChaosReport, run_campaign, run_trial
from repro.compiler.driver import compile_stencil, select_block_depth
from repro.machine.geometry import (
    CoordinateMap,
    SpareExhaustedError,
    spare_count,
)
from repro.machine.health import MachineHealth, link_key
from repro.machine.machine import CM2
from repro.machine.params import MachineParams
from repro.runtime.blocking import best_block_depth, reroute_penalty_cycles
from repro.runtime.cm_array import CMArray
from repro.runtime.faults import (
    FaultInjector,
    FaultKind,
    HardFaultSpec,
    LinkDownError,
    NoSpareError,
    ResiliencePolicy,
)
from repro.runtime.stencil_op import apply_stencil
from repro.stencil.gallery import cross, cross5, square, square9
from repro.stencil.offsets import BoundaryMode
from repro.stencil.pattern import pattern_from_offsets

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))

SHAPE = (16, 24)  # 4 nodes -> 2x2 grid of 8x12 subgrids
ITERATIONS = 6

EXECUTION_MODES = [
    ("blocked", dict(block_depth=3)),
    ("fast", dict()),
    ("exact", dict(exact=True)),
]


def boundary_variant(pattern, mode, fill_value=1.5):
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


def make_problem(pattern, *, spares=0, num_nodes=4, seed=0, shape=SHAPE,
                 grid=None):
    params = MachineParams(num_nodes=num_nodes)
    machine = CM2(params, shape=grid, spares=spares)
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
    _, compiled, x, coeffs = make_problem(pattern)
    run = apply_stencil(
        compiled, x, coeffs, "R_REF", iterations=ITERATIONS, **kwargs
    )
    return run, run.result.to_numpy()


def chaos_run(pattern, schedule, *, spares=2, policy=None, **kwargs):
    machine, compiled, x, coeffs = make_problem(pattern, spares=spares)
    injector = FaultInjector(seed=CHAOS_SEED, schedule=schedule)
    run = apply_stencil(
        compiled, x, coeffs, "R_CHAOS", iterations=ITERATIONS,
        faults=injector, resilience=policy, **kwargs,
    )
    return machine, run


# ----------------------------------------------------------------------
# Configuration: spares, the coordinate map, the health ledger
# ----------------------------------------------------------------------


class TestSpareConfiguration:
    def test_spare_count_spellings(self):
        assert spare_count((4, 8), None) == 0
        assert spare_count((4, 8), 0) == 0
        assert spare_count((4, 8), 3) == 3
        assert spare_count((4, 8), "row") == 8
        assert spare_count((4, 8), "col") == 4
        assert spare_count((4, 8), "column") == 4

    @pytest.mark.parametrize("bad", [-1, True, False, "diagonal", 2.5])
    def test_bad_spare_specs_rejected(self, bad):
        with pytest.raises((ValueError, TypeError)):
            spare_count((4, 4), bad)

    def test_machine_exposes_spares(self):
        machine = CM2(MachineParams(num_nodes=4), spares=3)
        assert machine.has_spares
        assert machine.spares_remaining == 3
        assert "3/3 spares" in machine.describe()
        plain = CM2(MachineParams(num_nodes=4))
        assert not plain.has_spares
        assert "spares" not in plain.describe()

    def test_coordinate_map_remap_and_exhaustion(self):
        cmap = CoordinateMap((2, 2), num_spares=1)
        original = cmap.physical(1, 1)
        spare = cmap.remap(1, 1)
        assert spare == 4  # first spare id = rows * cols
        assert cmap.physical(1, 1) == spare
        assert original not in cmap.in_service
        assert cmap.spares_remaining == 0
        with pytest.raises(SpareExhaustedError):
            cmap.remap(0, 0)

    def test_spare_node_inherits_views_and_address_space(self):
        machine = CM2(MachineParams(num_nodes=4), spares=2)
        machine.alloc_stacked("A", (3, 3))
        stack = machine.stacked("A")
        stack[...] = np.arange(stack.size, dtype=np.float32).reshape(
            stack.shape
        )
        before = machine.node(1, 0).memory.buffer("A").copy()
        spare = machine.remap_node(1, 0)
        assert machine.node(1, 0) is spare
        assert spare.address >= 4  # beyond the original address space
        np.testing.assert_array_equal(
            machine.node(1, 0).memory.buffer("A"), before
        )
        # The stacked view integrity is preserved machine-wide.
        assert machine.stacked("A") is not None


class TestMachineHealth:
    def test_retire_heals_links_of_the_retired_node(self):
        health = MachineHealth()
        health.mark_link_dead(0, 1, "h")
        health.mark_link_dead(2, 3, "v")
        health.mark_link_rerouted(0, 1)
        assert health.link_delivers(0, 1)  # rerouted: arrives, pays detour
        assert not health.link_delivers(2, 3)
        health.retire_node(1)
        assert health.link_delivers(0, 1)
        assert link_key(0, 1) not in health.dead_links
        assert not health.link_delivers(2, 3)  # untouched by the retire

    def test_epoch_bumps_on_every_change(self):
        health = MachineHealth()
        e0 = health.epoch
        health.mark_node_dead(5)
        health.mark_link_dead(0, 1, "h")
        health.mark_link_rerouted(0, 1)
        health.retire_node(5)
        assert health.epoch == e0 + 4

    def test_dead_wins_over_slow(self):
        health = MachineHealth()
        health.mark_node_dead(3)
        health.mark_node_slow(3)
        assert health.node_dead(3)
        assert not health.node_slow(3)


# ----------------------------------------------------------------------
# Satellite: policy validation
# ----------------------------------------------------------------------


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("max_retries", -1),
            ("backoff_base_cycles", 0),
            ("checkpoint_interval", -2),
            ("max_replays", -1),
            ("checkpoint_cycles_per_word", 0.0),
            ("exchange_deadline_cycles", 0),
            ("probe_cycles", 0),
            ("probe_attempts", 0),
            ("link_failure_threshold", 0),
            ("slow_overrun_cycles", -5),
            ("slow_confirmations", 0),
            ("max_remaps", -1),
            ("migration_cycles_per_word", -1.0),
        ],
    )
    def test_each_field_validated_with_clear_message(self, field, value):
        with pytest.raises(ValueError, match=field):
            ResiliencePolicy(**{field: value})

    def test_backoff_cap_must_cover_base(self):
        with pytest.raises(ValueError, match="backoff_cap"):
            ResiliencePolicy(backoff_base_cycles=100, backoff_cap_cycles=50)

    def test_defaults_are_valid(self):
        ResiliencePolicy()  # must not raise


class TestHardFaultSpecValidation:
    def test_transient_kind_rejected(self):
        with pytest.raises(ValueError, match="hard fault"):
            HardFaultSpec(FaultKind.HALO_CORRUPT, 0, 0, 0)

    def test_link_down_requires_direction(self):
        with pytest.raises(ValueError, match="direction"):
            HardFaultSpec(FaultKind.LINK_DOWN, 0, 0, 0)
        with pytest.raises(ValueError, match="direction"):
            HardFaultSpec(FaultKind.NODE_DEAD, 0, 0, 0, direction="N")

    def test_negative_exchange_rejected(self):
        with pytest.raises(ValueError, match="at_exchange"):
            HardFaultSpec(FaultKind.NODE_DEAD, -1, 0, 0)


# ----------------------------------------------------------------------
# The acceptance property: kill anything once, recover bit-identically
# ----------------------------------------------------------------------


class TestKillAnyNode:
    @pytest.mark.parametrize("mode", ["torus", "fill"])
    @pytest.mark.parametrize("exec_name,exec_kwargs", EXECUTION_MODES)
    def test_every_node_every_epoch(self, mode, exec_name, exec_kwargs):
        pattern = boundary_variant(cross(1), mode)
        _, expected = reference_result(pattern, **exec_kwargs)
        for row in range(2):
            for col in range(2):
                for at in (0, 2, 5):
                    schedule = [
                        HardFaultSpec(FaultKind.NODE_DEAD, at, row, col)
                    ]
                    machine, run = chaos_run(
                        pattern, schedule, **exec_kwargs
                    )
                    assert np.array_equal(
                        run.result.to_numpy(), expected
                    ), f"node({row},{col}) at exchange {at} diverged"
                    stats = run.fault_stats
                    assert stats.remaps == 1
                    assert stats.timeouts >= 1
                    assert machine.spares_remaining == 1

    def test_source_and_coefficients_restored_bitwise(self):
        pattern = boundary_variant(square(1), "torus")
        machine, compiled, x, coeffs = make_problem(pattern, spares=2)
        before = {"X": x.to_numpy()}
        before.update({n: c.to_numpy() for n, c in coeffs.items()})
        injector = FaultInjector(
            seed=CHAOS_SEED,
            schedule=[HardFaultSpec(FaultKind.NODE_DEAD, 2, 1, 1)],
        )
        apply_stencil(
            compiled, x, coeffs, "R_CHAOS", iterations=ITERATIONS,
            faults=injector,
        )
        np.testing.assert_array_equal(x.to_numpy(), before["X"])
        for name, coeff in coeffs.items():
            np.testing.assert_array_equal(coeff.to_numpy(), before[name])

    @pytest.mark.parametrize(
        "pattern,migrated",
        [(cross5, (448, 548)), (square9, (704, 804))],
        ids=["cross5", "square9"],
    )
    def test_hard_fault_window_opens_before_the_halo_stack_exists(
        self, pattern, migrated
    ):
        """A node killed at exchange 0 migrates the source, result and
        coefficient tiles (64 words each on 8x8 subgrids); killed at
        exchange 1 it also migrates the halo stack (10x10), which the
        first exchange allocates *after* its hard-fault window.  An
        exchange that allocated the halo stack before the window would
        migrate 100 more words at exchange 0."""
        for at, words in zip((0, 1), migrated):
            _, compiled, x, coeffs = make_problem(
                pattern(), spares=2, num_nodes=16, shape=(32, 32)
            )
            injector = FaultInjector(
                seed=1, schedule=[HardFaultSpec("node_dead", at, 1, 2)]
            )
            run = apply_stencil(
                compiled, x, coeffs, "R", iterations=3, faults=injector
            )
            assert run.fault_stats.remaps == 1
            assert run.fault_stats.migrated_words == words, f"killed at {at}"


class TestKillAnyLink:
    @pytest.mark.parametrize("mode", ["torus", "fill"])
    @pytest.mark.parametrize("exec_name,exec_kwargs", EXECUTION_MODES)
    def test_every_direction(self, mode, exec_name, exec_kwargs):
        pattern = boundary_variant(cross(1), mode)
        _, expected = reference_result(pattern, **exec_kwargs)
        for direction in ("N", "S", "W", "E"):
            for at in (0, 3):
                schedule = [
                    HardFaultSpec(
                        FaultKind.LINK_DOWN, at, 0, 1, direction=direction
                    )
                ]
                _, run = chaos_run(pattern, schedule, **exec_kwargs)
                assert np.array_equal(
                    run.result.to_numpy(), expected
                ), f"link {direction} at exchange {at} diverged"
                stats = run.fault_stats
                assert stats.reroutes >= 1
                assert stats.detour_cycles > 0

    def test_remap_heals_the_dead_link(self):
        """Killing the link then the node retires the bad wires: the
        spare's fresh links stop paying the detour."""
        pattern = boundary_variant(cross(1), "torus")
        _, expected = reference_result(pattern)
        schedule = [
            HardFaultSpec(FaultKind.LINK_DOWN, 1, 0, 1, direction="E"),
            HardFaultSpec(FaultKind.NODE_DEAD, 3, 0, 1),
        ]
        machine, run = chaos_run(pattern, schedule)
        assert np.array_equal(run.result.to_numpy(), expected)
        assert not machine.health.dead_links


class TestSlowNode:
    @pytest.mark.parametrize("exec_name,exec_kwargs", EXECUTION_MODES)
    def test_live_migration_no_rollback(self, exec_name, exec_kwargs):
        pattern = boundary_variant(cross(1), "torus")
        _, expected = reference_result(pattern, **exec_kwargs)
        schedule = [HardFaultSpec(FaultKind.NODE_SLOW, 1, 1, 0)]
        machine, run = chaos_run(pattern, schedule, **exec_kwargs)
        assert np.array_equal(run.result.to_numpy(), expected)
        stats = run.fault_stats
        assert stats.live_migrations == 1
        assert stats.remaps == 0
        assert stats.slow_overruns >= 1
        assert machine.spares_remaining == 1

    def test_spare_less_machine_limps_through(self):
        pattern = boundary_variant(cross(1), "torus")
        _, expected = reference_result(pattern)
        schedule = [HardFaultSpec(FaultKind.NODE_SLOW, 1, 1, 0)]
        machine, run = chaos_run(pattern, schedule, spares=0)
        assert np.array_equal(run.result.to_numpy(), expected)
        stats = run.fault_stats
        assert stats.live_migrations == 0
        assert stats.slow_overruns >= ITERATIONS - 1


class TestTypedFailures:
    def test_dead_node_without_spare_is_typed(self):
        pattern = boundary_variant(cross(1), "torus")
        schedule = [HardFaultSpec(FaultKind.NODE_DEAD, 2, 0, 0)]
        with pytest.raises(NoSpareError, match="no spare"):
            chaos_run(pattern, schedule, spares=0)

    def test_remap_budget_exhaustion_is_typed(self):
        pattern = boundary_variant(cross(1), "torus")
        schedule = [
            HardFaultSpec(FaultKind.NODE_DEAD, 1, 0, 0),
            HardFaultSpec(FaultKind.NODE_DEAD, 3, 1, 1),
        ]
        policy = ResiliencePolicy(max_remaps=1)
        with pytest.raises(NoSpareError, match="budget"):
            chaos_run(pattern, schedule, spares=4, policy=policy)

    def test_link_down_with_no_detour_is_typed(self):
        # A 1x4 grid has no second row to route an E/W band around.
        pattern = boundary_variant(cross(1), "torus")
        machine, compiled, x, coeffs = make_problem(
            pattern, spares=2, grid=(1, 4), shape=(8, 48)
        )
        injector = FaultInjector(
            seed=CHAOS_SEED,
            schedule=[
                HardFaultSpec(FaultKind.LINK_DOWN, 1, 0, 1, direction="E")
            ],
        )
        with pytest.raises(LinkDownError):
            apply_stencil(
                compiled, x, coeffs, "R_CHAOS", iterations=ITERATIONS,
                faults=injector,
            )


# ----------------------------------------------------------------------
# Accounting: recovery costs reconcile exactly
# ----------------------------------------------------------------------


class TestRecoveryAccounting:
    @pytest.mark.parametrize("exec_name,exec_kwargs", EXECUTION_MODES)
    @pytest.mark.parametrize(
        "spec_kind,spec_kwargs",
        [
            (FaultKind.NODE_DEAD, dict(row=1, col=1)),
            (FaultKind.LINK_DOWN, dict(row=0, col=1, direction="S")),
            (FaultKind.NODE_SLOW, dict(row=0, col=0)),
        ],
    )
    def test_totals_reconcile_with_closed_form(
        self, exec_name, exec_kwargs, spec_kind, spec_kwargs
    ):
        pattern = boundary_variant(cross(1), "torus")
        reference, expected = reference_result(pattern, **exec_kwargs)
        schedule = [HardFaultSpec(spec_kind, 2, **spec_kwargs)]
        _, run = chaos_run(pattern, schedule, **exec_kwargs)
        assert np.array_equal(run.result.to_numpy(), expected)
        stats = run.fault_stats
        assert (
            run.total_comm_cycles
            == reference.total_comm_cycles + stats.recovery_comm_cycles()
        )
        assert (
            run.total_compute_cycles
            == reference.total_compute_cycles
            + stats.recovery_compute_cycles()
        )
        # The canonical exchange count survives rollback and replay.
        assert run.num_exchanges == reference.num_exchanges
        assert run.coeff_exchanges == reference.coeff_exchanges

    def test_no_fault_guarded_run_with_spares_reconciles(self):
        """The genesis checkpoint is charged, but only into the recovery
        bucket: guarded totals still decompose exactly."""
        pattern = boundary_variant(cross(1), "torus")
        reference, expected = reference_result(pattern)
        machine, run = chaos_run(pattern, schedule=[], spares=2)
        assert np.array_equal(run.result.to_numpy(), expected)
        stats = run.fault_stats
        assert stats.checkpoints >= 1  # genesis
        assert (
            run.total_comm_cycles
            == reference.total_comm_cycles + stats.recovery_comm_cycles()
        )
        assert (
            run.total_compute_cycles
            == reference.total_compute_cycles
            + stats.recovery_compute_cycles()
        )

    def test_recovery_shows_up_in_rate_report(self):
        from repro.analysis.timing import report

        pattern = boundary_variant(cross(1), "torus")
        schedule = [HardFaultSpec(FaultKind.NODE_DEAD, 2, 1, 1)]
        _, run = chaos_run(pattern, schedule)
        row = report(run).row()
        assert "remaps" in row and "timeouts" in row


# ----------------------------------------------------------------------
# Satellite: checkpoint/restore x auto temporal blocking under faults
# ----------------------------------------------------------------------


class TestCheckpointAutoBlocking:
    def test_auto_depth_chaos_is_bit_identical(self):
        pattern = cross(1)
        _, compiled, x, coeffs = make_problem(pattern, seed=9)
        reference = apply_stencil(
            compiled, x, coeffs, "R_REF", iterations=12, block_depth="auto"
        )
        _, compiled2, x2, coeffs2 = make_problem(pattern, seed=9, spares=4)
        injector = FaultInjector(
            seed=CHAOS_SEED,
            rates={"halo_corrupt": 0.1, "node_dead": 0.05},
        )
        chaos = apply_stencil(
            compiled2, x2, coeffs2, "R_CHAOS", iterations=12,
            block_depth="auto", faults=injector,
            resilience=ResiliencePolicy(checkpoint_interval=2, max_remaps=4),
        )
        np.testing.assert_array_equal(
            chaos.result.to_numpy(), reference.result.to_numpy()
        )
        assert chaos.block_depths[0] == reference.block_depths[0]

    def test_checkpoint_bounds_the_replay_distance(self):
        pattern = boundary_variant(cross(1), "torus")
        _, expected = reference_result(pattern)
        schedule = [HardFaultSpec(FaultKind.NODE_DEAD, 5, 1, 0)]
        policy = ResiliencePolicy(checkpoint_interval=2)
        _, run = chaos_run(pattern, schedule, policy=policy)
        assert np.array_equal(run.result.to_numpy(), expected)
        stats = run.fault_stats
        assert stats.rollbacks == 1
        # Rewound to the last periodic checkpoint, not to iteration 0.
        assert 0 < stats.replayed_iterations <= policy.checkpoint_interval


# ----------------------------------------------------------------------
# Remap-aware block-depth selection
# ----------------------------------------------------------------------


class TestRemapAwareDepthSelection:
    def test_healthy_machine_matches_machineless_selection(self):
        pattern = cross(1)
        machine, compiled, x, _ = make_problem(pattern)
        d_plain = select_block_depth(compiled, x.subgrid_shape, 12)
        d_machine = select_block_depth(
            compiled, x.subgrid_shape, 12, machine=machine
        )
        assert d_plain == d_machine

    def test_reroute_penalty_scales_with_depth_and_is_zero_when_healthy(self):
        machine, compiled, x, _ = make_problem(cross(1))
        params = compiled.params
        assert (
            reroute_penalty_cycles(machine, x.subgrid_shape, params, 2, 1)
            == 0
        )
        machine.health.mark_link_dead(0, 1, "h")
        machine.health.mark_link_rerouted(0, 1)
        shallow = reroute_penalty_cycles(
            machine, x.subgrid_shape, params, 1, 1
        )
        deep = reroute_penalty_cycles(machine, x.subgrid_shape, params, 4, 1)
        assert 0 < shallow < deep

    def test_degraded_machine_does_not_poison_the_healthy_cache(self):
        pattern = cross(1)
        machine, compiled, x, _ = make_problem(pattern)
        healthy = select_block_depth(
            compiled, x.subgrid_shape, 12, machine=machine
        )
        machine.health.mark_link_dead(0, 2, "v")
        machine.health.mark_link_rerouted(0, 2)
        degraded = select_block_depth(
            compiled, x.subgrid_shape, 12, machine=machine
        )
        # The degraded selection is priced on the degraded machine.
        assert degraded == best_block_depth(
            compiled, x.subgrid_shape, 12, machine=machine
        )
        # A healthy machine still gets the healthy answer afterwards.
        fresh, compiled2, x2, _ = make_problem(pattern)
        assert (
            select_block_depth(
                compiled2, x2.subgrid_shape, 12, machine=fresh
            )
            == healthy
        )


# ----------------------------------------------------------------------
# The seeded campaign (CI sweeps CHAOS_SEED)
# ----------------------------------------------------------------------


class TestChaosCampaign:
    def test_seeded_campaign_survives_and_reconciles(self):
        report = run_campaign(
            seeds=(CHAOS_SEED,) if CHAOS_SEED else (1,),
            patterns=("cross5", "square9"),
        )
        assert report.ok, report.describe()
        assert report.num_trials == 12
        assert report.survival_rate == 1.0

    def test_trial_roundtrips_through_dict(self):
        trial = run_trial(
            "cross5", "torus", "fast", {}, seed=max(CHAOS_SEED, 1),
            schedule=[HardFaultSpec(FaultKind.NODE_DEAD, 2, 1, 1)],
            rates={},
        )
        assert trial.survived
        assert trial.stats.remaps == 1
        from repro.analysis.chaos import ChaosTrial

        clone = ChaosTrial.from_dict(trial.to_dict())
        assert clone.to_dict() == trial.to_dict()
        report = ChaosReport(trials=[trial])
        assert ChaosReport.from_dict(report.to_dict()).to_dict() == (
            report.to_dict()
        )
