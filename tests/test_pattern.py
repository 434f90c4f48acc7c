"""Tests for the stencil pattern IR: geometry, flop counting, rendering."""

import pytest

from repro.stencil.gallery import (
    asymmetric5,
    border_demo,
    cross5,
    cross9,
    diamond13,
    square9,
)
from repro.stencil.pattern import (
    Coefficient,
    CoeffKind,
    ExtraTerm,
    StencilPattern,
    Tap,
    pattern_from_offsets,
)


class TestCoefficient:
    def test_array_requires_name(self):
        with pytest.raises(ValueError):
            Coefficient(CoeffKind.ARRAY)

    def test_scalar_requires_value(self):
        with pytest.raises(ValueError):
            Coefficient(CoeffKind.SCALAR)

    def test_describe(self):
        assert Coefficient.array("C1").describe() == "C1"
        assert Coefficient.unit().describe() == "1.0"


class TestTap:
    def test_constant_term_needs_named_coefficient(self):
        with pytest.raises(ValueError):
            Tap(offset=(0, 0), coeff=Coefficient.unit(), is_constant_term=True)

    def test_constant_term_carries_no_offset(self):
        with pytest.raises(ValueError):
            Tap(
                offset=(1, 0),
                coeff=Coefficient.array("C"),
                is_constant_term=True,
            )

    def test_useful_flops_coefficient_tap(self):
        tap = Tap(offset=(0, 1), coeff=Coefficient.array("C1"))
        assert tap.useful_flops(first=True) == 1  # multiply only
        assert tap.useful_flops(first=False) == 2  # multiply + add

    def test_useful_flops_unit_tap(self):
        tap = Tap(offset=(0, 1), coeff=Coefficient.unit())
        assert tap.useful_flops(first=True) == 0
        assert tap.useful_flops(first=False) == 1


class TestPatternBasics:
    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            StencilPattern([])

    def test_duplicate_offsets_rejected(self):
        taps = [
            Tap(offset=(0, 0), coeff=Coefficient.array("C1")),
            Tap(offset=(0, 0), coeff=Coefficient.array("C2")),
        ]
        with pytest.raises(ValueError):
            StencilPattern(taps)

    def test_cross5_has_five_points(self):
        assert cross5().num_points == 5

    def test_diamond13_has_thirteen_points(self):
        assert diamond13().num_points == 13

    def test_cross9_is_radius_two_cross(self):
        offsets = set(cross9().offsets)
        assert offsets == {
            (-2, 0), (-1, 0), (0, -2), (0, -1), (0, 0),
            (0, 1), (0, 2), (1, 0), (2, 0),
        }

    def test_square9_is_three_by_three(self):
        offsets = set(square9().offsets)
        assert offsets == {(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)}


class TestBorderWidths:
    def test_cross5_borders_all_one(self):
        assert cross5().border_widths().as_tuple() == (1, 1, 1, 1)

    def test_diamond13_borders_all_two(self):
        assert diamond13().border_widths().as_tuple() == (2, 2, 2, 2)

    def test_border_demo_matches_paper_widths(self):
        """Paper section 5.1: N=2, S=0, W=3, E=1."""
        widths = border_demo().border_widths()
        assert widths.north == 2
        assert widths.south == 0
        assert widths.west == 3
        assert widths.east == 1
        assert widths.max_width == 3

    def test_asymmetric5_borders(self):
        widths = asymmetric5().border_widths()
        assert widths.north == 0
        assert widths.south == 2
        assert widths.west == 1
        assert widths.east == 1


class TestCornersAndSymmetry:
    def test_cross_needs_no_corner_exchange(self):
        assert not cross5().needs_corner_exchange()
        assert not cross9().needs_corner_exchange()

    def test_square_needs_corner_exchange(self):
        assert square9().needs_corner_exchange()

    def test_diamond_needs_corner_exchange(self):
        assert diamond13().needs_corner_exchange()

    def test_fourfold_symmetry(self):
        assert cross5().is_fourfold_symmetric()
        assert square9().is_fourfold_symmetric()
        assert diamond13().is_fourfold_symmetric()
        assert not asymmetric5().is_fourfold_symmetric()


class TestFlopCounting:
    def test_cross5_counts_nine_flops(self):
        """Paper section 7: the 5-point pattern is counted as 9 flops
        (5 multiplies and 4 adds) though executed as 5 multiply-adds."""
        assert cross5().useful_flops_per_point() == 9
        assert cross5().issued_multiply_adds_per_point() == 5

    def test_cross9_counts_seventeen_flops(self):
        assert cross9().useful_flops_per_point() == 17

    def test_diamond13_counts_twentyfive_flops(self):
        assert diamond13().useful_flops_per_point() == 25

    def test_unit_taps_reduce_useful_flops(self):
        taps = [
            Tap(offset=(0, 0), coeff=Coefficient.unit()),
            Tap(offset=(0, 1), coeff=Coefficient.unit()),
        ]
        pattern = StencilPattern(taps)
        # First tap: multiply by 1.0 (not useful), add to zero (not useful).
        # Second tap: only its add is useful.
        assert pattern.useful_flops_per_point() == 1

    def test_constant_term_contributes_one_add(self):
        taps = [
            Tap(offset=(0, 0), coeff=Coefficient.array("C1")),
            Tap(
                offset=(0, 0),
                coeff=Coefficient.array("C2"),
                is_constant_term=True,
            ),
        ]
        pattern = StencilPattern(taps)
        assert pattern.useful_flops_per_point() == 2  # mult + const add


class TestUnitRegister:
    def test_plain_pattern_needs_no_unit_register(self):
        assert not cross5().needs_unit_register()

    def test_constant_term_needs_unit_register(self):
        taps = [
            Tap(offset=(0, 0), coeff=Coefficient.array("C1")),
            Tap(
                offset=(0, 0),
                coeff=Coefficient.array("C2"),
                is_constant_term=True,
            ),
        ]
        assert StencilPattern(taps).needs_unit_register()

    def test_bare_data_term_needs_unit_register(self):
        taps = [Tap(offset=(0, 0), coeff=Coefficient.unit())]
        assert StencilPattern(taps).needs_unit_register()


class TestNamesAndRendering:
    def test_coefficient_names_in_tap_order(self):
        assert cross5().coefficient_names() == ("C1", "C2", "C3", "C4", "C5")

    def test_array_names_include_result_and_source(self):
        names = cross5().array_names()
        assert names[0] == "R"
        assert names[1] == "X"

    def test_array_names_include_fused_sources(self):
        base = cross5()
        fused = StencilPattern(
            base.taps,
            result="U",
            extra_terms=[
                ExtraTerm(source="Y", coeff=Coefficient.array("CY")),
                ExtraTerm(source="U", coeff=Coefficient.scalar(0.5)),
                ExtraTerm(source="Y", coeff=Coefficient.unit()),
                ExtraTerm(source="Z", coeff=Coefficient.array("C1")),
            ],
        )
        assert fused.array_names() == (
            "U", "X", "C1", "C2", "C3", "C4", "C5", "CY", "Y", "Z",
        )

    def test_pictogram_cross5(self):
        expected = ". # .\n# @ #\n. # ."
        assert cross5().pictogram() == expected

    def test_pictogram_asymmetric(self):
        # offsets (0,0),(0,1),(1,-1),(1,0),(2,0): bullet center, two rows
        # below, one column left and right.
        expected = ". @ #\n# # .\n. # ."
        assert asymmetric5().pictogram() == expected

    def test_pattern_from_offsets_names_coefficients(self):
        pattern = pattern_from_offsets([(0, 0), (0, 1)])
        assert pattern.coefficient_names() == ("C1", "C2")

    def test_equality_and_hash(self):
        assert cross5() == cross5()
        assert hash(cross5()) == hash(cross5())
        assert cross5() != square9()
