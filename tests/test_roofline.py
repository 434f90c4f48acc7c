"""Tests for the roofline bound analysis (paper section 4.4)."""

import pytest

from repro.analysis.roofline import analyze, analyze_plan, describe
from repro.compiler.driver import compile_stencil
from repro.compiler.fusion import fuse
from repro.machine.params import MachineParams
from repro.stencil.gallery import cross5, diamond13, square9
from repro.stencil.pattern import Coefficient, ExtraTerm


@pytest.fixture(scope="module")
def cross():
    return compile_stencil(cross5())


class TestRoofline:
    def test_points_for_every_width(self, cross):
        points = analyze(cross)
        assert set(points) == set(cross.widths)

    def test_compute_bound_is_ma_block(self, cross):
        point = analyze(cross)[8]
        assert point.compute_cycles == 8 * 5

    def test_memory_bound_counts_streams_and_transfers(self, cross):
        params = cross.params
        point = analyze(cross)[8]
        # 40 coefficient streams + (10 loads + 8 stores) * 2 cycles.
        assert point.memory_cycles == 40 + 18 * params.memory_access_cycles

    def test_memory_bound_counts_fused_extra_terms(self):
        """A fused term's coefficient streams once per multiply-add, like
        a tap's: cross5 + CY * Y at width 4 issues 4 x 6 multiply-adds,
        and a steady line loads one element into each of its 6 rings and
        4 of Y, then stores 4 results."""
        fused = fuse(cross5(), [ExtraTerm("Y", Coefficient.array("CY"))])
        params = fused.params
        point = analyze(fused)[4]
        assert point.compute_cycles == 4 * 6
        assert point.memory_cycles == 24 + (6 + 4 + 4) * (
            params.memory_access_cycles
        )

    def test_actual_cycles_match_line_pattern(self, cross):
        for width, point in analyze(cross).items():
            assert point.actual_cycles == cross.plans[width].steady_line_cycles

    def test_actual_never_beats_the_floor(self, cross):
        for point in analyze(cross).values():
            assert point.actual_cycles >= max(
                point.compute_cycles, point.memory_cycles
            )
            assert 0 < point.efficiency <= 1.0

    def test_wider_multistencils_are_more_efficient(self):
        """The whole point of the multistencil: register reuse pushes the
        schedule toward the binding resource's floor."""
        for pattern in (cross5(), square9(), diamond13()):
            compiled = compile_stencil(pattern)
            efficiencies = [
                analyze(compiled)[w].efficiency
                for w in sorted(compiled.widths)
            ]
            assert efficiencies == sorted(efficiencies)

    def test_memory_per_result_shrinks_with_width(self, cross):
        points = analyze(cross)
        per_result = {
            w: p.memory_cycles / w for w, p in points.items()
        }
        assert per_result[8] < per_result[4] < per_result[1]

    def test_heavy_patterns_reach_compute_bound_at_width_one(self):
        compiled = compile_stencil(diamond13())
        points = analyze(compiled)
        assert points[1].bound == "compute"
        assert points[4].bound == "memory"

    def test_balance_definition(self, cross):
        point = analyze(cross)[8]
        assert point.balance == pytest.approx(
            point.memory_cycles / point.compute_cycles
        )

    def test_describe_renders_table(self, cross):
        text = describe(cross)
        assert "bound" in text and "memory" in text
