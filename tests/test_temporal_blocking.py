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
from repro.runtime.blocking import blocked_costs, depth_cap
from repro.runtime.cm_array import CMArray
from repro.runtime.stencil_op import apply_stencil
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
            compiled2, x2, coeffs2, "R_AUTO", iterations=12, block_depth="auto"
        )
        np.testing.assert_array_equal(
            auto.result.to_numpy(), reference.result.to_numpy()
        )
        assert 1 <= auto.block_depths[0] <= depth_cap(pattern, x.subgrid_shape, 12)

    def test_source_array_is_never_modified(self):
        pattern = square(1)
        _, compiled, x, coeffs = make_problem(pattern, seed=4)
        before = x.to_numpy().copy()
        apply_stencil(compiled, x, coeffs, "R", iterations=6, block_depth=3)
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
        costs = blocked_costs(compiled, x.subgrid_shape, ITERATIONS, 3)
        assert run.total_comm_cycles == costs.total_comm_cycles
        assert run.total_compute_cycles == costs.total_compute_cycles
        assert run.total_half_strips == costs.total_half_strips
        assert run.num_exchanges == costs.num_exchanges
        assert run.coeff_exchanges == costs.coeff_exchanges
        assert run.host_calls == costs.num_blocks
        assert run.elapsed_seconds == pytest.approx(
            costs.modeled_seconds(compiled.params, ITERATIONS)
        )

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

    def test_blocked_fixed_point_still_charges_whole_run(self):
        """An all-zero iterate is a fixed point; the blocked loop stops
        computing but the accounting still covers every block."""
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
            compiled, x, coeffs, "R", iterations=8, block_depth=2
        )
        np.testing.assert_array_equal(
            run.result.to_numpy(), np.zeros(SHAPE, dtype=np.float32)
        )
        assert run.num_exchanges == 4
        costs = blocked_costs(compiled, x.subgrid_shape, 8, 2)
        assert run.total_comm_cycles == costs.total_comm_cycles


class TestPingPongReuse:
    def test_no_new_allocations_after_warm_up(self):
        pattern = square(1)
        machine, compiled, x, coeffs = make_problem(pattern, seed=11)
        apply_stencil(
            compiled, x, coeffs, "R", iterations=ITERATIONS, block_depth=3
        )
        warm = machine.storage.scratch_allocations
        assert warm > 0
        for seed in range(3):
            apply_stencil(
                compiled, x, coeffs, "R", iterations=ITERATIONS, block_depth=3
            )
        assert machine.storage.scratch_allocations == warm

    def test_ping_pong_pair_is_stable_across_calls(self):
        pattern = cross(1)
        machine, compiled, x, coeffs = make_problem(pattern, seed=12)
        apply_stencil(compiled, x, coeffs, "R", iterations=4, block_depth=2)
        from repro.runtime.halo import halo_buffer_name

        shape = tuple(s + 4 for s in x.subgrid_shape)
        ping, pong = machine.pingpong_stacked(halo_buffer_name("X"), shape)
        apply_stencil(compiled, x, coeffs, "R", iterations=4, block_depth=2)
        ping2, pong2 = machine.pingpong_stacked(halo_buffer_name("X"), shape)
        assert ping is ping2 and pong is pong2

    def test_depth_change_reallocates_then_stabilizes(self):
        pattern = cross(1)
        machine, compiled, x, coeffs = make_problem(pattern, seed=13)
        apply_stencil(compiled, x, coeffs, "R", iterations=8, block_depth=2)
        after_d2 = machine.storage.scratch_allocations
        apply_stencil(compiled, x, coeffs, "R", iterations=8, block_depth=4)
        after_d4 = machine.storage.scratch_allocations
        assert after_d4 > after_d2  # deeper halo -> bigger buffers
        apply_stencil(compiled, x, coeffs, "R", iterations=8, block_depth=4)
        assert machine.storage.scratch_allocations == after_d4
