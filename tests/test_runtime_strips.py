"""Tests for strip mining and half-strip scheduling."""

import pytest

from repro.compiler.plan import WidthPlan, compile_pattern
from repro.machine.params import MachineParams
from repro.runtime.strips import StripSchedule, split_rows
from repro.stencil.gallery import cross5, diamond13


@pytest.fixture
def params():
    return MachineParams()


class TestSplitRows:
    def test_even_height(self):
        lower, upper = split_rows(64)
        assert lower == (63, 32)
        assert upper == (31, 32)

    def test_odd_height_lower_gets_extra(self):
        lower, upper = split_rows(7)
        assert lower == (6, 4)  # rows 3..6, swept North from the edge
        assert upper == (2, 3)  # rows 0..2

    def test_single_row(self):
        lower, upper = split_rows(1)
        assert lower == (0, 1)
        assert upper[1] == 0

    def test_halves_cover_all_rows_disjointly(self):
        for rows in range(1, 40):
            (ys_lo, n_lo), (ys_hi, n_hi) = split_rows(rows)
            covered = set()
            for y_start, lines in ((ys_lo, n_lo), (ys_hi, n_hi)):
                for line in range(lines):
                    covered.add(y_start - line)
            assert covered == set(range(rows))


class TestStripSchedule:
    def test_width_decomposition(self, params):
        compiled = compile_pattern(cross5(), params)
        schedule = StripSchedule(compiled, (64, 21))
        assert schedule.widths() == [8, 8, 4, 1]

    def test_strip_bases_tile_the_axis(self, params):
        compiled = compile_pattern(cross5(), params)
        schedule = StripSchedule(compiled, (64, 21))
        x = 0
        for strip in schedule.strips:
            assert strip.x0 == x
            x += strip.width
        assert x == 21

    def test_two_half_strips_per_strip(self, params):
        compiled = compile_pattern(cross5(), params)
        schedule = StripSchedule(compiled, (64, 64))
        assert schedule.num_half_strips == 2 * schedule.num_strips

    def test_half_strip_lines_cover_subgrid(self, params):
        compiled = compile_pattern(cross5(), params)
        schedule = StripSchedule(compiled, (17, 16))
        for strip in schedule.strips:
            rows = set()
            for job in strip.half_strips:
                for line in range(job.lines):
                    rows.add(job.y_start - line)
            assert rows == set(range(17))

    def test_single_row_subgrid(self, params):
        compiled = compile_pattern(cross5(), params)
        schedule = StripSchedule(compiled, (1, 16))
        assert schedule.num_half_strips == schedule.num_strips

    def test_degenerate_shape_rejected(self, params):
        compiled = compile_pattern(cross5(), params)
        with pytest.raises(ValueError):
            StripSchedule(compiled, (0, 16))

    def test_compute_cycles_formula(self, params):
        compiled = compile_pattern(cross5(), params)
        schedule = StripSchedule(compiled, (64, 64))
        plan = compiled.plans[8]
        per_strip = params.strip_setup_cycles + 2 * plan.half_strip_cycles(
            32, params
        )
        assert schedule.compute_cycles(params) == 8 * per_strip

    def test_compute_cycles_walks_the_strips_once(self, params, monkeypatch):
        """The closed form is summed once per ``params``: a second call
        (a cold block-depth selection makes dozens) walks no half-strip."""
        compiled = compile_pattern(cross5(), params)
        schedule = StripSchedule(compiled, (64, 21))
        walked = []
        real = WidthPlan.half_strip_cycles

        def counted(plan, lines, machine_params):
            walked.append(lines)
            return real(plan, lines, machine_params)

        monkeypatch.setattr(WidthPlan, "half_strip_cycles", counted)
        first = schedule.compute_cycles(params)
        assert schedule.compute_cycles(params) == first
        assert len(walked) == schedule.num_half_strips == 8

    def test_narrow_widths_cost_more(self, params):
        """Without width 8, the same subgrid costs more cycles (more
        half-strip dispatches, less reuse)."""
        full = compile_pattern(cross5(), params)
        narrow = compile_pattern(cross5(), params, widths=(4, 2, 1))
        cost_full = StripSchedule(full, (64, 64)).compute_cycles(params)
        cost_narrow = StripSchedule(narrow, (64, 64)).compute_cycles(params)
        assert cost_narrow > cost_full

    def test_describe(self, params):
        compiled = compile_pattern(diamond13(), params)
        text = StripSchedule(compiled, (64, 21)).describe()
        assert "4+4+4+4+4+1" in text
