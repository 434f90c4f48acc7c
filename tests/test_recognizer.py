"""Tests for the stencil recognizer: the paper's grammar, enforced."""

import pytest

from repro.fortran.errors import DiagnosticSink, NotAStencilError
from repro.fortran.parser import parse_assignment, parse_subroutine
from repro.fortran.recognizer import (
    recognize_assignment,
    recognize_subroutine,
    scan_subroutine,
)
from repro.stencil.offsets import BoundaryMode
from repro.stencil.pattern import CoeffKind

PAPER_CROSS5 = """R = C1 * CSHIFT (X, DIM=1, SHIFT=-1) &
  + C2 * CSHIFT (X, DIM=2, SHIFT=-1) &
  + C3 * X &
  + C4 * CSHIFT (X, DIM=2, SHIFT=+1) &
  + C5 * CSHIFT (X, DIM=1, SHIFT=+1)"""

PAPER_CROSS9 = """R = C1 * CSHIFT (X, DIM=1, SHIFT=-2) &
  + C2 * CSHIFT (X, DIM=1, SHIFT=-1) &
  + C3 * CSHIFT (X, DIM=2, SHIFT=-2) &
  + C4 * CSHIFT (X, DIM=2, SHIFT=-1) &
  + C5 * X &
  + C6 * CSHIFT (X, DIM=2, SHIFT=+2) &
  + C7 * CSHIFT (X, DIM=2, SHIFT=+1) &
  + C8 * CSHIFT (X, DIM=1, SHIFT=+1) &
  + C9 * CSHIFT (X, DIM=1, SHIFT=+2)"""

PAPER_SQUARE9 = """R = C1 * CSHIFT(CSHIFT (X, 1, -1), 2, -1) &
  + C2 * CSHIFT(X, 1, -1) &
  + C3 * CSHIFT(CSHIFT (X, 1, -1), 2, +1) &
  + C4 * CSHIFT (X, 2, -1) &
  + C5 * X &
  + C6 * CSHIFT (X, 2, +1) &
  + C7 * CSHIFT (CSHIFT (X, 1, +1), 2, -1) &
  + C8 * CSHIFT(X, 1, +1) &
  + C9 * CSHIFT(CSHIFT (X, 1, +1), 2, +1)"""

PAPER_ASYM5 = """R = C1 * X &
  + C2 * CSHIFT (X, 2, +1) &
  + C3 * CSHIFT(CSHIFT (X, 1, +1), 2, -1) &
  + C4 * CSHIFT (X, 1, +1) &
  + C5 * CSHIFT (X, 1, +2)"""


def recognize(source, **kwargs):
    return recognize_assignment(parse_assignment(source), **kwargs)


class TestPaperStatements:
    def test_cross5_offsets(self):
        pattern = recognize(PAPER_CROSS5)
        assert set(pattern.offsets) == {
            (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)
        }
        assert pattern.source == "X"
        assert pattern.result == "R"

    def test_cross5_tap_order_preserved(self):
        pattern = recognize(PAPER_CROSS5)
        assert pattern.offsets == ((-1, 0), (0, -1), (0, 0), (0, 1), (1, 0))

    def test_cross9_offsets(self):
        pattern = recognize(PAPER_CROSS9)
        assert set(pattern.offsets) == {
            (-2, 0), (-1, 0), (0, -2), (0, -1), (0, 0),
            (0, 2), (0, 1), (1, 0), (2, 0),
        }

    def test_square9_composed_shifts(self):
        pattern = recognize(PAPER_SQUARE9)
        assert set(pattern.offsets) == {
            (dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)
        }

    def test_asymmetric5(self):
        pattern = recognize(PAPER_ASYM5)
        assert set(pattern.offsets) == {
            (0, 0), (0, 1), (1, -1), (1, 0), (2, 0)
        }

    def test_positional_form_is_dim_then_shift(self):
        """Paper convention: CSHIFT(X, 2, +1) is the East neighbor."""
        pattern = recognize("R = C1 * CSHIFT(X, 2, +1)")
        assert pattern.offsets == ((0, 1),)

    def test_coefficient_on_either_side(self):
        left = recognize("R = C1 * CSHIFT(X, 1, -1)")
        right = recognize("R = CSHIFT(X, 1, -1) * C1")
        assert left.offsets == right.offsets
        assert left.taps[0].coeff == right.taps[0].coeff


class TestTermForms:
    def test_bare_shifted_term(self):
        pattern = recognize("R = CSHIFT(X, 1, -1) + C2 * X")
        assert pattern.taps[0].coeff.kind is CoeffKind.UNIT
        assert pattern.needs_unit_register()

    def test_constant_term(self):
        pattern = recognize("R = C1 * CSHIFT(X, 1, -1) + C2")
        constant = pattern.taps[1]
        assert constant.is_constant_term
        assert constant.coeff.name == "C2"
        assert pattern.needs_unit_register()

    def test_scalar_coefficient(self):
        pattern = recognize("R = 0.5 * CSHIFT(X, 1, -1) + 2.0 * X")
        assert pattern.taps[0].coeff.kind is CoeffKind.SCALAR
        assert pattern.taps[0].coeff.value == 0.5

    def test_scalar_subtraction_folds_sign(self):
        pattern = recognize("R = 4.0 * X - 1.0 * CSHIFT(X, 1, -1)")
        assert pattern.taps[1].coeff.value == -1.0

    def test_bare_term_subtraction_becomes_scalar(self):
        pattern = recognize("R = 4.0 * X - CSHIFT(X, 1, -1)")
        assert pattern.taps[1].coeff.kind is CoeffKind.SCALAR
        assert pattern.taps[1].coeff.value == -1.0

    def test_array_subtraction_rejected(self):
        with pytest.raises(NotAStencilError, match="negate the coefficient"):
            recognize("R = C1 * X - C2 * CSHIFT(X, 1, -1)")

    def test_duplicate_scalar_offsets_fold(self):
        pattern = recognize("R = 2.0 * CSHIFT(X, 1, -1) + 3.0 * CSHIFT(X, 1, -1)")
        assert len(pattern.taps) == 1
        assert pattern.taps[0].coeff.value == 5.0

    def test_duplicate_array_offsets_rejected(self):
        with pytest.raises(NotAStencilError, match="same offset"):
            recognize("R = C1 * CSHIFT(X, 1, -1) + C2 * CSHIFT(X, 1, -1)")


class TestRejections:
    def test_two_shifted_variables_rejected(self):
        with pytest.raises(NotAStencilError, match="same variable"):
            recognize("R = C1 * CSHIFT(X, 1, -1) + C2 * CSHIFT(Y, 1, +1)")

    def test_result_as_source_rejected(self):
        with pytest.raises(NotAStencilError, match="result array"):
            recognize("X = C1 * CSHIFT(X, 1, -1)")

    def test_division_rejected(self):
        with pytest.raises(NotAStencilError, match="division"):
            recognize("R = C1 / CSHIFT(X, 1, -1)")

    def test_three_factor_product_rejected(self):
        with pytest.raises(NotAStencilError):
            recognize("R = C1 * C2 * CSHIFT(X, 1, -1)")

    def test_variable_shift_amount_rejected(self):
        with pytest.raises(NotAStencilError, match="compile-time"):
            recognize("R = C1 * CSHIFT(X, 1, N)")

    def test_non_shift_intrinsic_rejected(self):
        with pytest.raises(NotAStencilError, match="shifting intrinsic"):
            recognize("R = C1 * TRANSPOSE(X)")

    def test_three_plane_dims_rejected(self):
        source = (
            "R = C1 * CSHIFT(X, 1, -1) + C2 * CSHIFT(X, 2, -1)"
            " + C3 * CSHIFT(X, 3, -1)"
        )
        with pytest.raises(NotAStencilError, match="two-dimensional"):
            recognize(source)

    def test_unidentifiable_source_rejected(self):
        with pytest.raises(NotAStencilError, match="cannot identify"):
            recognize("R = C1 * X")

    def test_mixed_boundary_same_dim_rejected(self):
        with pytest.raises(NotAStencilError):
            recognize(
                "R = C1 * CSHIFT(X, 1, -1) + C2 * EOSHIFT(X, 1, +1)"
            )

    def test_mixed_boundary_within_chain_rejected(self):
        with pytest.raises(NotAStencilError):
            recognize("R = C1 * EOSHIFT(CSHIFT(X, 1, -1), 1, +1)")

    def test_eoshift_fill_values_must_agree(self):
        with pytest.raises(NotAStencilError, match="fill"):
            recognize(
                "R = C1 * EOSHIFT(X, 1, -1, 1.0) + C2 * EOSHIFT(X, 1, +1, 2.0)"
            )

    @pytest.mark.parametrize(
        "source, dim",
        [
            ("R = C1 * CSHIFT(X, DIM=0, SHIFT=1)", "0"),
            # Standard Fortran's (shift, dim) order read the paper's way.
            ("R = C1 * CSHIFT(X, -1, 1)", "-1"),
            ("R = C1 * EOSHIFT(CSHIFT(X, 1, 1), DIM=-2, SHIFT=1)", "-2"),
        ],
    )
    def test_dimension_below_one_names_the_dim_argument(self, source, dim):
        with pytest.raises(NotAStencilError, match="1-based") as caught:
            recognize(source)
        span = caught.value.span
        assert span.start.line == span.end.line == 1
        assert source[span.start.column - 1 : span.end.column - 1] == dim


class TestBoundaryModes:
    def test_cshift_gives_circular(self):
        pattern = recognize(PAPER_CROSS5)
        assert pattern.boundary[1] is BoundaryMode.CIRCULAR
        assert pattern.boundary[2] is BoundaryMode.CIRCULAR

    def test_eoshift_gives_fill(self):
        pattern = recognize(
            "R = C1 * EOSHIFT(X, 1, -1) + C2 * EOSHIFT(X, 1, +1)"
        )
        assert pattern.boundary[1] is BoundaryMode.FILL

    def test_eoshift_boundary_value_captured(self):
        pattern = recognize("R = C1 * EOSHIFT(X, 1, -1, 3.5)")
        assert pattern.fill_value == 3.5

    def test_mixed_modes_across_dims_allowed(self):
        pattern = recognize(
            "R = C1 * CSHIFT(X, 1, -1) + C2 * EOSHIFT(X, 2, +1)"
        )
        assert pattern.boundary[1] is BoundaryMode.CIRCULAR
        assert pattern.boundary[2] is BoundaryMode.FILL


class TestSubroutineLevel:
    def test_paper_cross_subroutine(self):
        sub = parse_subroutine(
            "SUBROUTINE CROSS (R, X, C1, C2, C3, C4, C5)\n"
            "REAL, ARRAY(:, :) :: R, X, C1, C2, C3, C4, C5\n"
            + PAPER_CROSS5
            + "\nEND"
        )
        pattern = recognize_subroutine(sub)
        assert pattern.name == "cross"
        assert pattern.num_points == 5

    def test_rank_mismatch_rejected(self):
        sub = parse_subroutine(
            "SUBROUTINE S (R, X, C1)\n"
            "REAL, ARRAY(:, :) :: R, X\n"
            "REAL, ARRAY(:, :, :) :: C1\n"
            "R = C1 * CSHIFT(X, 1, -1)\n"
            "END"
        )
        with pytest.raises(NotAStencilError, match="rank"):
            recognize_subroutine(sub)

    def test_shift_beyond_rank_rejected(self):
        sub = parse_subroutine(
            "SUBROUTINE S (R, X, C1)\n"
            "REAL, ARRAY(:, :) :: R, X, C1\n"
            "R = C1 * CSHIFT(X, 3, -1)\n"
            "END"
        )
        with pytest.raises(NotAStencilError, match="rank"):
            recognize_subroutine(sub)

    def test_multiple_statements_rejected_at_subroutine_level(self):
        sub = parse_subroutine(
            "SUBROUTINE S (R, X, C1)\n"
            "R = C1 * CSHIFT(X, 1, -1)\n"
            "R = C1 * CSHIFT(X, 1, +1)\n"
            "END"
        )
        with pytest.raises(NotAStencilError, match="exactly one"):
            recognize_subroutine(sub)


class TestScan:
    """The version-3 integrated behaviour: scan, compile what fits, warn
    on directive-flagged failures."""

    def test_scan_finds_stencils_and_skips_others(self):
        sub = parse_subroutine(
            "SUBROUTINE S (R, T, X, C1)\n"
            "REAL, ARRAY(:, :) :: R, T, X, C1\n"
            "R = C1 * CSHIFT(X, 1, -1)\n"
            "T = C1 / X\n"
            "END"
        )
        results = scan_subroutine(sub)
        assert results[0][1] is not None
        assert results[1][1] is None

    def test_directive_failure_warns(self):
        sub = parse_subroutine(
            "SUBROUTINE S (R, X, C1)\n"
            "REAL, ARRAY(:, :) :: R, X, C1\n"
            "!REPRO$ STENCIL\n"
            "R = C1 / X\n"
            "END"
        )
        sink = DiagnosticSink()
        scan_subroutine(sub, sink)
        assert len(sink.warnings) == 1
        assert "could not be processed" in sink.warnings[0].message

    def test_undirected_failure_is_silent(self):
        sub = parse_subroutine(
            "SUBROUTINE S (R, X, C1)\n"
            "REAL, ARRAY(:, :) :: R, X, C1\n"
            "R = C1 / X\n"
            "END"
        )
        sink = DiagnosticSink()
        scan_subroutine(sub, sink)
        assert not sink.warnings


class TestEoshiftChains:
    def test_same_sign_chain_accepted(self):
        pattern = recognize("R = C1 * EOSHIFT(EOSHIFT(X, 1, +1), 1, +1)")
        assert pattern.offsets == ((2, 0),)

    def test_mixed_sign_chain_rejected(self):
        """EOSHIFT(+1) then EOSHIFT(-1) blanks two rows but has net
        offset zero: not expressible as a stencil tap."""
        with pytest.raises(NotAStencilError, match="directions"):
            recognize("R = C1 * EOSHIFT(EOSHIFT(X, 1, +1), 1, -1)")

    def test_mixed_sign_across_dims_accepted(self):
        pattern = recognize("R = C1 * EOSHIFT(EOSHIFT(X, 1, +1), 2, -1)")
        assert pattern.offsets == ((1, -1),)
