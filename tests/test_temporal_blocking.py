"""Temporal blocking: deep-halo multi-iteration fusion.

The contract under test is strict bit-identity: a blocked run at any
depth must reproduce, bit for bit in float32, what ``T`` sequential
single-exchange iterations produce -- across boundary modes, pads, and
tail blocks -- while exchanging halos only ``ceil(k / T)`` times and
reusing its preallocated ping-pong buffers across calls.
"""

import math

import numpy as np
import pytest

from repro.compiler.driver import compile_stencil
from repro.machine.machine import CM2
from repro.machine.params import MachineParams
from repro.runtime.batch import apply_stencil_batch
from repro.runtime.blocking import BlockList, best_block_depth, depth_cap
from repro.runtime.cm_array import CMArray
from repro.runtime.faults import ResiliencePolicy
from repro.runtime.stencil_op import apply_stencil
from repro.stencil import gallery
from repro.stencil.gallery import cross, diamond, square
from repro.stencil.offsets import BoundaryMode
from repro.stencil.pattern import pattern_from_offsets

SHAPE = (16, 24)  # 4 nodes -> 2x2 grid of 8x12 subgrids
ITERATIONS = 7  # not a multiple of any tested depth > 1: tail blocks


def boundary_variant(pattern, mode, fill_value=0.0):
    """The same taps under a chosen boundary mode."""
    modes = {
        "torus": {1: BoundaryMode.CIRCULAR, 2: BoundaryMode.CIRCULAR},
        "fill": {1: BoundaryMode.FILL, 2: BoundaryMode.FILL},
        "mixed": {1: BoundaryMode.FILL, 2: BoundaryMode.CIRCULAR},
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


GALLERY = [
    ("cross1", lambda: cross(1)),  # pad 1, no corner taps
    ("cross2", lambda: cross(2)),  # pad 2
    ("cross3", lambda: cross(3)),  # pad 3: depth clamps at 8x12 subgrids
    ("square1", lambda: square(1)),  # pad 1 with corner taps
    ("diamond2", lambda: diamond(2)),  # pad 2, diagonal reach
]


#: An unguarded run computes its bits in the band schedule whatever its
#: block depth; the guarded loop's blocked rung (deep exchanges,
#: ping-pong stacks, tail blocks) runs only guarded, so the blocked
#: side of these tests runs guarded, with no faults.
GUARDED = dict(resilience=ResiliencePolicy())


class TestBitIdentity:
    @pytest.mark.parametrize("patname,make", GALLERY)
    @pytest.mark.parametrize("mode", ["torus", "fill", "mixed"])
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_blocked_equals_unblocked_bit_for_bit(
        self, patname, make, mode, depth
    ):
        pattern = boundary_variant(make(), mode, fill_value=1.5)
        _, compiled, x, coeffs = make_problem(pattern)
        reference = apply_stencil(
            compiled, x, coeffs, "R_REF", iterations=ITERATIONS
        )
        _, compiled2, x2, coeffs2 = make_problem(pattern)
        blocked = apply_stencil(
            compiled2,
            x2,
            coeffs2,
            "R_BLK",
            iterations=ITERATIONS,
            block_depth=depth,
            **GUARDED,
        )
        np.testing.assert_array_equal(
            blocked.result.to_numpy(), reference.result.to_numpy()
        )
        cap = depth_cap(pattern, x.subgrid_shape, ITERATIONS)
        assert blocked.block_depths[0] == min(depth, cap)

    def test_auto_depth_is_feasible_and_bit_identical(self):
        pattern = cross(1)
        _, compiled, x, coeffs = make_problem(pattern, seed=9)
        reference = apply_stencil(compiled, x, coeffs, "R_REF", iterations=12)
        _, compiled2, x2, coeffs2 = make_problem(pattern, seed=9)
        auto = apply_stencil(
            compiled2, x2, coeffs2, "R_AUTO", iterations=12, block_depth="auto",
            **GUARDED,
        )
        np.testing.assert_array_equal(
            auto.result.to_numpy(), reference.result.to_numpy()
        )
        assert 1 <= auto.block_depths[0] <= depth_cap(pattern, x.subgrid_shape, 12)

    def test_source_array_is_never_modified(self):
        pattern = square(1)
        _, compiled, x, coeffs = make_problem(pattern, seed=4)
        before = x.to_numpy().copy()
        for guard in ({}, GUARDED):
            apply_stencil(
                compiled, x, coeffs, "R", iterations=6, block_depth=3, **guard
            )
            np.testing.assert_array_equal(x.to_numpy(), before)

    def test_invalid_depth_rejected(self):
        pattern = cross(1)
        _, compiled, x, coeffs = make_problem(pattern)
        with pytest.raises(ValueError):
            apply_stencil(compiled, x, coeffs, "R", iterations=4, block_depth=0)
        with pytest.raises(ValueError):
            apply_stencil(
                compiled, x, coeffs, "R", iterations=4, block_depth="deep"
            )


class TestExchangeAccounting:
    @pytest.mark.parametrize("depth", [2, 3, 4])
    def test_blocked_run_exchanges_ceil_k_over_t(self, depth):
        pattern = cross(1)
        _, compiled, x, coeffs = make_problem(pattern)
        run = apply_stencil(
            compiled, x, coeffs, "R", iterations=ITERATIONS, block_depth=depth
        )
        assert run.block_depths[0] == depth
        assert run.num_exchanges == math.ceil(ITERATIONS / depth)
        assert run.coeff_exchanges == len(pattern.coefficient_names())

    def test_blocked_totals_match_the_cost_model(self):
        pattern = square(1)
        _, compiled, x, coeffs = make_problem(pattern)
        run = apply_stencil(
            compiled, x, coeffs, "R", iterations=ITERATIONS, block_depth=3
        )
        # The cost model's figures for square(1) on 8x12 subgrids, 7
        # iterations at depth 3: blocks of 3, 3 and 1 steps, each of the
        # nine array coefficients deep-exchanged once.
        assert run.total_comm_cycles == 7672
        assert run.total_compute_cycles == 23768
        assert run.total_half_strips == 32
        assert run.num_exchanges == 3
        assert run.coeff_exchanges == 9
        assert run.host_calls == 3
        assert run.elapsed_seconds == pytest.approx(0.01019142857142857)

    def test_unblocked_run_aggregates_per_iteration_comm(self):
        """Satellite: every iteration's exchange is charged, not just
        the first one's."""
        pattern = cross(2)
        _, compiled, x, coeffs = make_problem(pattern)
        run = apply_stencil(compiled, x, coeffs, "R", iterations=5)
        assert run.num_exchanges == 5
        assert run.total_comm_cycles == 5 * run.comm.cycles
        single = apply_stencil(compiled, x, coeffs, "R1")
        assert single.num_exchanges == 1
        assert single.total_comm_cycles == single.comm.cycles

    def test_blocked_exchange_cycles_beat_unblocked(self):
        """The point of the whole exercise: fewer, deeper exchanges cost
        fewer total comm cycles once the run is long enough to amortize
        the per-coefficient deep exchanges."""
        pattern = cross(1)
        params = MachineParams(num_nodes=16)
        machine = CM2(params)
        compiled = compile_stencil(pattern, params)
        rng = np.random.default_rng(0)
        x = CMArray.from_numpy(
            "X", machine, rng.standard_normal((16, 16)).astype(np.float32)
        )
        coeffs = {
            name: CMArray.from_numpy(
                name, machine, rng.standard_normal((16, 16)).astype(np.float32)
            )
            for name in pattern.coefficient_names()
        }
        unblocked = apply_stencil(compiled, x, coeffs, "RU", iterations=32)
        blocked = apply_stencil(
            compiled, x, coeffs, "RB", iterations=32, block_depth=4
        )
        assert blocked.num_exchanges == 8
        assert blocked.total_comm_cycles < unblocked.total_comm_cycles

    @pytest.mark.parametrize(
        "guard",
        [{}, dict(resilience=ResiliencePolicy())],
        ids=["unguarded", "guarded"],
    )
    def test_blocked_fixed_point_still_charges_whole_run(self, guard):
        """An all-zero iterate is a fixed point.  The accounting covers
        every block, exactly as a run of the same geometry that never
        converges: the guarded loop computes every block, and the band
        schedule, which an unguarded run takes, stops computing early
        but the record still prices the whole block list."""
        pattern = cross(1)
        params = MachineParams(num_nodes=4)
        machine = CM2(params)
        compiled = compile_stencil(pattern, params)
        x = CMArray.from_numpy(
            "X", machine, np.zeros(SHAPE, dtype=np.float32)
        )
        rng = np.random.default_rng(1)
        coeffs = {
            name: CMArray.from_numpy(
                name, machine, rng.standard_normal(SHAPE).astype(np.float32)
            )
            for name in pattern.coefficient_names()
        }
        run = apply_stencil(
            compiled, x, coeffs, "R", iterations=8, block_depth=2, **guard
        )
        np.testing.assert_array_equal(
            run.result.to_numpy(), np.zeros(SHAPE, dtype=np.float32)
        )
        assert run.num_exchanges == 4
        noise = CMArray.from_numpy(
            "N", machine, rng.standard_normal(SHAPE).astype(np.float32)
        )
        moving = apply_stencil(
            compiled, noise, coeffs, "RN", iterations=8, block_depth=2,
            **guard,
        )
        assert not np.array_equal(
            moving.result.to_numpy(), noise.to_numpy()
        )
        assert run.total_comm_cycles == moving.total_comm_cycles
        assert run.total_compute_cycles == moving.total_compute_cycles

    @pytest.mark.parametrize(
        "policy, cycles",
        [(ResiliencePolicy(), 21_856), (ResiliencePolicy(abft=True), 22_048)],
        ids=["checkpoints", "abft"],
    )
    def test_guarded_price_does_not_depend_on_the_data(self, policy, cycles):
        """A guarded run computes and is charged every block, checkpoint
        mark and ABFT seal of its block list: a zero source, at a fixed
        point from its first block, costs what noise that never settles
        costs, with checkpoints and with ABFT on."""
        pattern = cross(1)
        params = MachineParams(num_nodes=4)
        machine = CM2(params)
        compiled = compile_stencil(pattern, params)
        rng = np.random.default_rng(1)
        coeffs = {
            name: CMArray.from_numpy(
                name, machine, rng.standard_normal(SHAPE).astype(np.float32)
            )
            for name in pattern.coefficient_names()
        }
        runs = []
        for name, data in [
            ("Z", np.zeros(SHAPE, dtype=np.float32)),
            ("N", rng.standard_normal(SHAPE).astype(np.float32)),
        ]:
            source = CMArray.from_numpy(name, machine, data)
            runs.append(
                apply_stencil(
                    compiled, source, coeffs, f"R{name}", iterations=8,
                    block_depth=2, resilience=policy,
                )
            )
        zero, noise = runs
        np.testing.assert_array_equal(
            zero.result.to_numpy(), np.zeros(SHAPE, dtype=np.float32)
        )
        assert zero.fault_stats.checkpoints == noise.fault_stats.checkpoints == 1
        assert (
            zero.fault_stats.checkpoint_cycles
            == noise.fault_stats.checkpoint_cycles
            > 0
        )
        assert zero.total_compute_cycles == noise.total_compute_cycles == cycles
        assert zero.total_comm_cycles == noise.total_comm_cycles
        for field in ("abft_seals", "abft_verifies", "abft_cycles"):
            assert getattr(zero.fault_stats, field) == getattr(
                noise.fault_stats, field
            )
        assert zero.reconciled and noise.reconciled


class TestDepthSelection:
    """Depth choices recorded from the selector on 16-node parameters,
    with no machine, a healthy one, and one with two rerouted links: a
    change to the price list must not move them."""

    @staticmethod
    def rerouted_machine(params):
        machine = CM2(params)
        machine.health.mark_link_dead(0, 1, "h")
        machine.health.mark_link_rerouted(0, 1)
        machine.health.mark_link_dead(0, 4, "v")
        machine.health.mark_link_rerouted(0, 4)
        return machine

    @pytest.mark.parametrize(
        "name,subgrid,iterations,batch,healthy,rerouted",
        [
            ("cross5", (4, 4), 12, 1, 3, 3),
            ("square9", (4, 4), 16, 1, 3, 1),
            ("asymmetric5", (4, 4), 4, 2, 2, 1),
            ("asymmetric5", (4, 4), 8, 8, 1, 2),
            ("cross5", (4, 4), 12, 2, 1, 3),
            ("cross5", (8, 12), 32, 1, 1, 3),
            ("asymmetric5", (8, 12), 32, 2, 2, 2),
            ("square9", (4, 4), 32, 8, 1, 3),
            ("cross9", (16, 16), 8, 4, 1, 1),
            ("diamond13", (32, 32), 16, 8, 1, 1),
        ],
    )
    def test_selection_matches_the_recorded_choices(
        self, name, subgrid, iterations, batch, healthy, rerouted
    ):
        params = MachineParams(num_nodes=16)
        compiled = compile_stencil(getattr(gallery, name)(), params)

        def pick(machine):
            return best_block_depth(
                compiled, subgrid, iterations, machine=machine, batch=batch
            )

        assert pick(None) == healthy
        assert pick(CM2(params)) == healthy
        assert pick(self.rerouted_machine(params)) == rerouted

    @pytest.mark.parametrize(
        "name,subgrid,iterations,batch",
        [
            ("cross5", (4, 4), 12, 1),
            ("square9", (4, 4), 16, 1),
            ("asymmetric5", (4, 4), 4, 2),
            ("asymmetric5", (4, 4), 8, 8),
            ("cross5", (4, 4), 12, 2),
            ("cross5", (8, 12), 32, 1),
            ("asymmetric5", (8, 12), 32, 2),
            ("square9", (4, 4), 32, 8),
            ("cross9", (16, 16), 8, 4),
            ("diamond13", (32, 32), 16, 8),
        ],
    )
    def test_selector_prices_the_detours_a_guarded_run_is_charged(
        self, name, subgrid, iterations, batch
    ):
        """For every candidate depth on the rerouted machine, the
        detour the selector prices is what a guarded run pays: one-step
        blocks at edge height, tail blocks at their own width."""
        params = MachineParams(num_nodes=16)
        machine = self.rerouted_machine(params)
        pattern = getattr(gallery, name)()
        compiled = compile_stencil(pattern, params)
        rng = np.random.default_rng(5)
        shape = (4 * subgrid[0], 4 * subgrid[1])

        def draw(label):
            data = rng.uniform(0.5, 1.0, shape).astype(np.float32)
            return CMArray.from_numpy(label, machine, data)

        sources = [draw(f"X{b}") for b in range(batch)]
        coeffs = {n: draw(n) for n in pattern.coefficient_names()}
        for depth in range(1, depth_cap(pattern, subgrid, iterations) + 1):
            run = apply_stencil_batch(
                [compiled], sources, coeffs, iterations=iterations,
                block_depth=depth,
                resilience=ResiliencePolicy(checkpoint_interval=0),
            )
            priced = BlockList((compiled,), subgrid, iterations, (depth,))
            assert run.block_depths == (depth,)
            assert run.fault_stats.detour_cycles == priced.detour(
                machine, batch
            ), f"depth {depth}"


class TestPingPongReuse:
    """The guarded loop's blocked rung keeps its ping-pong pair in
    machine storage (an unguarded run allocates none: it takes the band
    schedule), so these runs are guarded, with no faults."""

    def test_no_new_allocations_after_warm_up(self):
        pattern = square(1)
        machine, compiled, x, coeffs = make_problem(pattern, seed=11)
        apply_stencil(
            compiled, x, coeffs, "R", iterations=ITERATIONS, block_depth=3,
            **GUARDED,
        )
        warm = machine.storage.scratch_allocations
        assert warm > 0
        for seed in range(3):
            apply_stencil(
                compiled, x, coeffs, "R", iterations=ITERATIONS,
                block_depth=3, **GUARDED,
            )
        assert machine.storage.scratch_allocations == warm

    def test_ping_pong_pair_is_stable_across_calls(self):
        pattern = cross(1)
        machine, compiled, x, coeffs = make_problem(pattern, seed=12)
        apply_stencil(
            compiled, x, coeffs, "R", iterations=4, block_depth=2,
            **GUARDED,
        )
        from repro.runtime.halo import halo_buffer_name

        shape = tuple(s + 4 for s in x.subgrid_shape)
        ping, pong = machine.storage.pingpong(halo_buffer_name("X"), shape)
        apply_stencil(
            compiled, x, coeffs, "R", iterations=4, block_depth=2,
            **GUARDED,
        )
        ping2, pong2 = machine.storage.pingpong(halo_buffer_name("X"), shape)
        assert ping is ping2 and pong is pong2

    def test_depth_change_reallocates_then_stabilizes(self):
        pattern = cross(1)
        machine, compiled, x, coeffs = make_problem(pattern, seed=13)
        apply_stencil(
            compiled, x, coeffs, "R", iterations=8, block_depth=2,
            **GUARDED,
        )
        after_d2 = machine.storage.scratch_allocations
        apply_stencil(
            compiled, x, coeffs, "R", iterations=8, block_depth=4,
            **GUARDED,
        )
        after_d4 = machine.storage.scratch_allocations
        assert after_d4 > after_d2  # deeper halo -> bigger buffers
        apply_stencil(
            compiled, x, coeffs, "R", iterations=8, block_depth=4,
            **GUARDED,
        )
        assert machine.storage.scratch_allocations == after_d4
