"""Tests for the halo exchange: data movement and the cost model."""

import numpy as np
import pytest

from repro.machine.machine import CM2
from repro.machine.params import MachineParams
from repro.runtime.cm_array import CMArray
from repro.runtime.faults import FaultGuard, ResiliencePolicy
from repro.runtime.halo import (
    exchange_cost,
    exchange_halo,
    exchange_halo_batch,
    exchange_halo_deep,
    exchange_halo_group,
    halo_buffer_name,
)
from repro.stencil.gallery import border_demo, cross5, diamond13, square9
from repro.stencil.offsets import BoundaryMode
from repro.stencil.pattern import pattern_from_offsets


@pytest.fixture
def machine():
    return CM2(MachineParams(num_nodes=16))


def padded_of(machine, name, row, col):
    return machine.node(row, col).memory.buffer(halo_buffer_name(name))


class TestExchangeData:
    def test_interior_matches_own_subgrid(self, machine):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((64, 64)).astype(np.float32)
        x = CMArray.from_numpy("X", machine, data)
        exchange_halo(x, cross5(), machine.params)
        padded = padded_of(machine, "X", 1, 1)
        np.testing.assert_array_equal(padded[1:-1, 1:-1], x.subgrid(1, 1))

    def test_halo_equals_global_window_circular(self, machine):
        """Every node's padded buffer must equal the correspondingly
        wrapped window of the global array."""
        rng = np.random.default_rng(3)
        data = rng.standard_normal((64, 64)).astype(np.float32)
        x = CMArray.from_numpy("X", machine, data)
        pattern = diamond13()  # pad 2, needs corners
        exchange_halo(x, pattern, machine.params)
        pad = 2
        wrapped = np.pad(data, pad, mode="wrap")
        sr, sc = x.subgrid_shape
        for node in machine.nodes():
            r, c = node.coord.row, node.coord.col
            window = wrapped[r * sr : (r + 1) * sr + 2 * pad,
                             c * sc : (c + 1) * sc + 2 * pad]
            padded = padded_of(machine, "X", r, c)
            np.testing.assert_array_equal(padded, window)

    def test_halo_equals_global_window_fill(self, machine):
        """EOSHIFT (FILL) dimensions fill out-of-bounds halo with the
        boundary value at global edges only."""
        rng = np.random.default_rng(4)
        data = rng.standard_normal((64, 64)).astype(np.float32)
        x = CMArray.from_numpy("X", machine, data)
        pattern = pattern_from_offsets(
            [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)],
            boundary={1: BoundaryMode.FILL, 2: BoundaryMode.FILL},
            fill_value=9.0,
        )
        exchange_halo(x, pattern, machine.params)
        padded_global = np.pad(data, 1, mode="constant", constant_values=9.0)
        sr, sc = x.subgrid_shape
        for node in machine.nodes():
            r, c = node.coord.row, node.coord.col
            window = padded_global[r * sr : (r + 1) * sr + 2,
                                   c * sc : (c + 1) * sc + 2]
            padded = padded_of(machine, "X", r, c)
            # Corners were skipped (cross pattern): compare edges + center.
            np.testing.assert_array_equal(padded[1:-1, :], window[1:-1, :])
            np.testing.assert_array_equal(padded[:, 1:-1], window[:, 1:-1])

    def test_mixed_boundary_modes(self, machine):
        """Circular rows, filled columns."""
        rng = np.random.default_rng(5)
        data = rng.standard_normal((64, 64)).astype(np.float32)
        x = CMArray.from_numpy("X", machine, data)
        pattern = pattern_from_offsets(
            [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)],
            boundary={1: BoundaryMode.CIRCULAR, 2: BoundaryMode.FILL},
            fill_value=0.0,
        )
        exchange_halo(x, pattern, machine.params)
        padded_global = np.pad(data, 1, mode="wrap")
        padded_global[:, 0] = 0.0
        padded_global[:, -1] = 0.0
        sr, sc = x.subgrid_shape
        for node in machine.nodes():
            r, c = node.coord.row, node.coord.col
            window = padded_global[r * sr : (r + 1) * sr + 2,
                                   c * sc : (c + 1) * sc + 2]
            np.testing.assert_array_equal(
                padded_of(machine, "X", r, c), window
            )

    def test_corner_skip_leaves_corners_unfilled(self, machine):
        data = np.ones((64, 64), dtype=np.float32)
        x = CMArray.from_numpy("X", machine, data)
        stats = exchange_halo(x, cross5(), machine.params)
        assert stats.corner_step_skipped
        padded = padded_of(machine, "X", 0, 0)
        assert padded[0, 0] == 0.0  # temp storage, never read

    def test_corner_step_runs_for_diagonal_patterns(self, machine):
        data = np.ones((64, 64), dtype=np.float32)
        x = CMArray.from_numpy("X", machine, data)
        stats = exchange_halo(x, square9(), machine.params)
        assert not stats.corner_step_skipped
        padded = padded_of(machine, "X", 0, 0)
        assert padded[0, 0] == 1.0

    def test_pad_wider_than_subgrid_rejected(self):
        machine = CM2(MachineParams(num_nodes=16))
        x = CMArray("X", machine, (4, 4))  # 1x1 subgrids
        with pytest.raises(ValueError, match="halo width"):
            exchange_halo(x, diamond13(), machine.params)

    def test_asymmetric_pattern_pads_by_max(self, machine):
        """Padding uses the largest of the four border widths on all
        sides (paper section 5.1)."""
        data = np.zeros((64, 64), dtype=np.float32)
        x = CMArray.from_numpy("X", machine, data)
        stats = exchange_halo(x, border_demo(), machine.params)
        assert stats.pad == 3  # West border width dominates
        padded = padded_of(machine, "X", 0, 0)
        # 64x64 global over the 4x4 grid: 16x16 subgrids.
        assert padded.shape == (16 + 6, 16 + 6)


class TestCostModel:
    def test_zero_pad_costs_nothing(self, machine):
        pattern = pattern_from_offsets([(0, 0)])
        stats = exchange_cost(pattern, (64, 64), machine.params)
        assert stats.cycles == 0
        assert stats.pad == 0

    def test_cost_proportional_to_longer_side(self, machine):
        """'the communications time will be proportional to the length
        of the longer side' (paper section 5.1)."""
        params = machine.params
        square = exchange_cost(cross5(), (64, 64), params)
        wide = exchange_cost(cross5(), (64, 128), params)
        tall = exchange_cost(cross5(), (128, 64), params)
        assert wide.cycles == tall.cycles
        assert (wide.cycles - params.comm_startup_cycles) == 2 * (
            square.cycles - params.comm_startup_cycles
        )

    def test_cost_scales_with_border_width(self, machine):
        params = machine.params
        narrow = exchange_cost(cross5(), (64, 64), params)  # pad 1
        # diamond13 pads 2 but also pays the corner step; compare a
        # corner-free radius-2 cross instead.
        from repro.stencil.gallery import cross9

        wide = exchange_cost(cross9(), (64, 64), params)  # pad 2
        assert (wide.cycles - params.comm_startup_cycles) == 2 * (
            narrow.cycles - params.comm_startup_cycles
        )

    def test_corner_step_costs_extra(self, machine):
        params = machine.params
        no_corners = exchange_cost(cross5(), (64, 64), params)
        corners = exchange_cost(square9(), (64, 64), params)
        assert corners.cycles > no_corners.cycles
        assert corners.corner_elements == 4

    def test_temp_words_accounting(self, machine):
        stats = exchange_cost(diamond13(), (64, 64), machine.params)
        assert stats.temp_words == 68 * 68

    def test_comm_fraction_shrinks_with_problem_size(self, machine):
        """Section 4.1: communication cost grows as the square root of
        the flops, so its share vanishes for large problems."""
        params = machine.params
        small = exchange_cost(cross5(), (32, 32), params)
        large = exchange_cost(cross5(), (256, 256), params)
        small_share = small.cycles / (32 * 32)
        large_share = large.cycles / (256 * 256)
        assert large_share < small_share / 4


class TestLegacyPrimitive:
    """The section 4.1 comparison: the old one-direction-at-a-time grid
    primitive vs the new simultaneous four-neighbor exchange."""

    def test_old_primitive_is_slower(self, machine):
        from repro.runtime.halo import legacy_exchange_cost

        params = machine.params
        for pattern in (cross5(), diamond13()):
            new = exchange_cost(pattern, (64, 64), params)
            old = legacy_exchange_cost(pattern, (64, 64), params)
            assert old.cycles > new.cycles
            assert old.pad == new.pad
            assert old.edge_elements == new.edge_elements

    def test_old_primitive_pays_per_direction_startups(self, machine):
        from repro.runtime.halo import legacy_exchange_cost

        params = machine.params
        old = legacy_exchange_cost(cross5(), (64, 64), params)
        # Four directions x pad 1: at least four startups.
        assert old.cycles >= 4 * params.comm_startup_cycles

    def test_old_primitive_zero_pad_free(self, machine):
        from repro.runtime.halo import legacy_exchange_cost
        from repro.stencil.pattern import pattern_from_offsets

        pattern = pattern_from_offsets([(0, 0)])
        assert legacy_exchange_cost(pattern, (64, 64), machine.params).cycles == 0

    def test_wider_halos_widen_the_gap(self, machine):
        from repro.runtime.halo import legacy_exchange_cost
        from repro.stencil.gallery import cross9

        params = machine.params
        narrow_ratio = (
            legacy_exchange_cost(cross5(), (64, 64), params).cycles
            / exchange_cost(cross5(), (64, 64), params).cycles
        )
        wide_ratio = (
            legacy_exchange_cost(cross9(), (64, 64), params).cycles
            / exchange_cost(cross9(), (64, 64), params).cycles
        )
        assert wide_ratio > narrow_ratio


def _exchange_solo(pattern):
    def run(machine, guard, data, stack):
        x = CMArray.from_numpy("X", machine, data)
        exchange_halo(x, pattern, machine.params, guard=guard)

    return run


def _exchange_deep(machine, guard, data, stack):
    x = CMArray.from_numpy("X", machine, data)
    padded = np.zeros((2, 2, 12, 16), dtype=np.float32)
    exchange_halo_deep(
        machine.stacked(x.name), padded, cross5(), (8, 12), machine.params,
        2, guard=guard,
    )


def _exchange_batch(machine, guard, data, stack):
    padded = np.zeros((2, 2, 2, 10, 14), dtype=np.float32)
    exchange_halo_batch(
        stack, padded, square9(), (8, 12), machine.params,
        copies=2, guard=guard,
    )


def _exchange_group(machine, guard, data, stack):
    padded = np.zeros((2, 2, 2, 12, 16), dtype=np.float32)
    exchange_halo_group(
        stack, padded, cross5(), (8, 12), machine.params, 2,
        copies=2, guard=guard,
    )


EDGE_MESSAGES = [
    ("north edge", (1, 12)),
    ("south edge", (1, 12)),
    ("west edge", (8, 1)),
    ("east edge", (8, 1)),
]
CORNER_MESSAGES = [
    ("NW corner", (1, 1)),
    ("NE corner", (1, 1)),
    ("SW corner", (1, 1)),
    ("SE corner", (1, 1)),
]
BAND_MESSAGES = [
    ("north band", (2, 12)),
    ("south band", (2, 12)),
    ("west band", (12, 2)),
    ("east band", (12, 2)),
]


class TestGuardedMessages:
    """The messages every guarded exchange hands the injector, in
    order.  The injector picks its victim by index into this list and
    flips a bit inside the chosen region, so a reordered or reshaped
    list changes every chaos campaign's draws."""

    @pytest.mark.parametrize(
        "exchange,lead,expected",
        [
            (_exchange_solo(cross5()), (), EDGE_MESSAGES),
            (_exchange_solo(square9()), (), EDGE_MESSAGES + CORNER_MESSAGES),
            (_exchange_deep, (), BAND_MESSAGES),
            (_exchange_batch, (2,), EDGE_MESSAGES + CORNER_MESSAGES),
            (_exchange_group, (2,), BAND_MESSAGES),
        ],
        ids=["solo-cross5", "solo-square9", "deep-2", "batch-2", "group-2"],
    )
    def test_message_table(self, exchange, lead, expected):
        machine = CM2(MachineParams(num_nodes=4))
        guard = FaultGuard(policy=ResiliencePolicy())
        guard.attach_machine(machine)
        seen = []
        guard.inject_halo = lambda regions: seen.extend(
            (label, tuple(region.shape)) for label, region in regions
        )
        rng = np.random.default_rng(0)
        data = rng.standard_normal((16, 24)).astype(np.float32)
        stack = rng.standard_normal((2, 2, 2, 8, 12)).astype(np.float32)
        exchange(machine, guard, data, stack)
        assert seen == [
            (label, lead + (2, 2) + shape) for label, shape in expected
        ]


class TestDegenerateGrids:
    """1xN and Nx1 node grids: every neighbor direction along the
    degenerate axis is the node itself (torus) or the global boundary
    (FILL), which stresses the roll/overwrite order of both halo paths."""

    MODES = {
        "torus": {1: BoundaryMode.CIRCULAR, 2: BoundaryMode.CIRCULAR},
        "fill": {1: BoundaryMode.FILL, 2: BoundaryMode.FILL},
    }

    def _pattern(self, mode):
        # Corner taps (pad 1 square) exercise the diagonal messages.
        return pattern_from_offsets(
            [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)],
            name=f"square_{mode}",
            boundary=self.MODES[mode],
            fill_value=2.5,
        )

    @staticmethod
    def _scatter(shape, seed=7):
        machine = CM2(MachineParams(num_nodes=4), shape=shape)
        data = (
            np.random.default_rng(seed)
            .standard_normal((16, 24))
            .astype(np.float32)
        )
        return machine, CMArray.from_numpy("X", machine, data), data

    @pytest.mark.parametrize("shape", [(1, 4), (4, 1)])
    @pytest.mark.parametrize("mode", ["torus", "fill"])
    def test_halo_matches_global_wrap(self, shape, mode):
        pattern = self._pattern(mode)
        machine, x, data = self._scatter(shape)
        exchange_halo(x, pattern, machine.params)
        if mode == "torus":
            wrapped = np.pad(data, 1, mode="wrap")
        else:
            wrapped = np.pad(data, 1, mode="constant", constant_values=2.5)
        sr, sc = x.subgrid_shape
        for node in machine.nodes():
            r, c = node.coord.row, node.coord.col
            window = wrapped[r * sr : (r + 1) * sr + 2,
                             c * sc : (c + 1) * sc + 2]
            np.testing.assert_array_equal(
                padded_of(machine, "X", r, c), window
            )

    @pytest.mark.parametrize("shape", [(1, 4), (4, 1)])
    @pytest.mark.parametrize("mode", ["torus", "fill"])
    def test_blocked_equals_unblocked(self, shape, mode):
        """exchange_halo_deep bit-identity on degenerate grids, checked
        end to end through the blocked executor."""
        from repro.compiler.driver import compile_stencil
        from repro.runtime.stencil_op import apply_stencil

        pattern = self._pattern(mode)

        def run(block_depth):
            machine, x, _ = self._scatter(shape)
            compiled = compile_stencil(pattern, machine.params)
            rng = np.random.default_rng(11)
            coeffs = {
                name: CMArray.from_numpy(
                    name, machine,
                    rng.standard_normal((16, 24)).astype(np.float32),
                )
                for name in pattern.coefficient_names()
            }
            return apply_stencil(
                compiled, x, coeffs, "R",
                iterations=5, block_depth=block_depth,
            ).result.to_numpy()

        np.testing.assert_array_equal(run(1), run(2))

    @staticmethod
    def _rolled_shallow(stack, padded, pattern, stats, subgrid_shape):
        """The band construction through ``np.roll`` temporaries: the
        reference the direct slice assignments must reproduce."""
        from repro.runtime.halo import CORNERS, EDGES, _apply_fill

        rows, cols = subgrid_shape
        pad = stats.pad
        padded[..., pad : pad + rows, pad : pad + cols] = stack
        padded[..., :pad, pad : pad + cols] = np.roll(
            stack[..., rows - pad :, :], 1, axis=-4
        )
        padded[..., pad + rows :, pad : pad + cols] = np.roll(
            stack[..., :pad, :], -1, axis=-4
        )
        padded[..., pad : pad + rows, :pad] = np.roll(
            stack[..., cols - pad :], 1, axis=-3
        )
        padded[..., pad : pad + rows, pad + cols :] = np.roll(
            stack[..., :pad], -1, axis=-3
        )
        if stats.corner_step_skipped:
            for corner in (
                (slice(None, pad), slice(None, pad)),
                (slice(None, pad), slice(pad + cols, None)),
                (slice(pad + rows, None), slice(None, pad)),
                (slice(pad + rows, None), slice(pad + cols, None)),
            ):
                padded[(Ellipsis,) + corner] = 0.0
        else:
            for (r, c), shift in (
                ((slice(None, pad), slice(None, pad)), (1, 1)),
                ((slice(None, pad), slice(pad + cols, None)), (1, -1)),
                ((slice(pad + rows, None), slice(None, pad)), (-1, 1)),
                ((slice(pad + rows, None), slice(pad + cols, None)), (-1, -1)),
            ):
                src_r = slice(rows - pad, None) if shift[0] == 1 else slice(None, pad)
                src_c = slice(cols - pad, None) if shift[1] == 1 else slice(None, pad)
                padded[..., r, c] = np.roll(
                    stack[..., src_r, src_c], shift, axis=(-4, -3)
                )
        _apply_fill(
            padded, pattern, subgrid_shape, pad,
            EDGES if stats.corner_step_skipped else CORNERS,
        )

    @staticmethod
    def _rolled_deep(stack, padded, pattern, subgrid_shape, deep):
        from repro.runtime.halo import BANDS, _apply_fill

        rows, cols = subgrid_shape
        padded[..., deep : deep + rows, deep : deep + cols] = stack
        padded[..., :deep, deep : deep + cols] = np.roll(
            stack[..., rows - deep :, :], 1, axis=-4
        )
        padded[..., deep + rows :, deep : deep + cols] = np.roll(
            stack[..., :deep, :], -1, axis=-4
        )
        padded[..., :deep] = np.roll(
            padded[..., cols : cols + deep], 1, axis=-3
        )
        padded[..., deep + cols :] = np.roll(
            padded[..., deep : 2 * deep], -1, axis=-3
        )
        _apply_fill(padded, pattern, subgrid_shape, deep, BANDS)

    @pytest.mark.parametrize("grid", [(16, 16), (1, 16), (16, 1)])
    @pytest.mark.parametrize("lead", [(), (8,), (8, 4)])
    @pytest.mark.parametrize("mode", ["torus", "fill"])
    @pytest.mark.parametrize("corners", [False, True])
    def test_bands_match_rolled_bands(self, grid, lead, mode, corners):
        """The stack-level band fills, shallow and deep, bit for bit
        against the rolled construction, leading axes included."""
        from repro.runtime.halo import BANDS, CORNERS, EDGES, _fill

        if corners:
            pattern = self._pattern(mode)
        else:
            pattern = pattern_from_offsets(
                [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)],
                boundary=self.MODES[mode],
                fill_value=2.5,
            )
        subgrid = (4, 6)
        rng = np.random.default_rng(12)
        stack = rng.standard_normal(lead + grid + subgrid).astype(np.float32)
        stats = exchange_cost(pattern, subgrid, MachineParams(num_nodes=16))
        pad = stats.pad
        for fill, reference, depth in (
            (
                lambda out: _fill(
                    stack, out, pattern, subgrid, pad,
                    EDGES if stats.corner_step_skipped else CORNERS,
                ),
                lambda out: self._rolled_shallow(
                    stack, out, pattern, stats, subgrid
                ),
                pad,
            ),
            (
                lambda out: _fill(stack, out, pattern, subgrid, 3 * pad, BANDS),
                lambda out: self._rolled_deep(
                    stack, out, pattern, subgrid, 3 * pad
                ),
                3 * pad,
            ),
        ):
            shape = lead + grid + (4 + 2 * depth, 6 + 2 * depth)
            got = np.full(shape, np.nan, dtype=np.float32)
            want = np.full(shape, np.nan, dtype=np.float32)
            fill(got)
            reference(want)
            np.testing.assert_array_equal(
                got.view(np.uint32), want.view(np.uint32)
            )

    def test_shape_must_hold_all_nodes(self):
        with pytest.raises(ValueError, match="does not hold"):
            CM2(MachineParams(num_nodes=4), shape=(1, 2))

    def test_shape_extents_must_be_powers_of_two(self):
        with pytest.raises(ValueError, match="powers of two"):
            CM2(MachineParams(num_nodes=12), shape=(3, 4))
