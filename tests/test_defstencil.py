"""Tests for the Lisp prototype front end (paper section 6, version 1)."""

import pytest

from repro.lisp.defstencil import (
    DefstencilError,
    parse_defstencil,
    parse_defstencil_with_types,
)
from repro.lisp.sexpr import SexprError, Symbol, read, read_all, write
from repro.stencil.pattern import CoeffKind

PAPER_DEFSTENCIL = """
(defstencil cross (r x c1 c2 c3 c4 c5)
  (single-float single-float)
  (:= r (+ (* c1 (cshift x 1 -1))
           (* c2 (cshift x 2 -1))
           (* c3 x)
           (* c4 (cshift x 2 +1))
           (* c5 (cshift x 1 +1)))))
"""


class TestSexprReader:
    def test_read_atom(self):
        assert read("42") == 42

    def test_read_float(self):
        assert read("2.5") == 2.5

    def test_read_symbol_uppercases(self):
        assert read("cshift") == Symbol("CSHIFT")

    def test_read_signed_integers(self):
        assert read("(-1 +1)") == [-1, 1]

    def test_nested_lists(self):
        assert read("(a (b c) d)") == [
            Symbol("A"),
            [Symbol("B"), Symbol("C")],
            Symbol("D"),
        ]

    def test_comments_ignored(self):
        assert read("(a ; comment\n b)") == [Symbol("A"), Symbol("B")]

    def test_unclosed_paren(self):
        with pytest.raises(SexprError):
            read("(a b")

    def test_stray_close_paren(self):
        with pytest.raises(SexprError):
            read(")")

    def test_read_all(self):
        assert len(read_all("(a) (b)")) == 2

    def test_write_round_trip(self):
        form = read("(a (b 1) 2.5)")
        assert read(write(form)) == form


class TestDefstencil:
    def test_paper_form_with_types(self):
        pattern = parse_defstencil_with_types(PAPER_DEFSTENCIL)
        assert pattern.name == "cross"
        assert set(pattern.offsets) == {
            (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)
        }
        assert pattern.result == "R"
        assert pattern.source == "X"

    def test_coefficients_in_order(self):
        pattern = parse_defstencil_with_types(PAPER_DEFSTENCIL)
        assert pattern.coefficient_names() == ("C1", "C2", "C3", "C4", "C5")

    def test_four_element_form(self):
        pattern = parse_defstencil(
            "(defstencil s (r x c) (:= r (* c (cshift x 1 -1))))"
        )
        assert pattern.offsets == ((-1, 0),)

    def test_matches_fortran_front_end(self):
        from repro.fortran.parser import parse_assignment
        from repro.fortran.recognizer import recognize_assignment

        lisp = parse_defstencil_with_types(PAPER_DEFSTENCIL)
        fortran = recognize_assignment(
            parse_assignment(
                "R = C1 * CSHIFT(X, 1, -1) + C2 * CSHIFT(X, 2, -1)"
                " + C3 * X + C4 * CSHIFT(X, 2, +1) + C5 * CSHIFT(X, 1, +1)"
            )
        )
        assert lisp.offsets == fortran.offsets
        assert [t.coeff for t in lisp.taps] == [t.coeff for t in fortran.taps]

    def test_nested_cshift(self):
        pattern = parse_defstencil(
            "(defstencil s (r x c) (:= r (* c (cshift (cshift x 1 -1) 2 +1))))"
        )
        assert pattern.offsets == ((-1, 1),)

    def test_bare_data_term(self):
        pattern = parse_defstencil(
            "(defstencil s (r x c) (:= r (+ (* c (cshift x 1 -1)) x)))"
        )
        assert pattern.taps[1].coeff.kind is CoeffKind.UNIT

    def test_scalar_coefficient(self):
        pattern = parse_defstencil(
            "(defstencil s (r x) (:= r (* 0.25 (cshift x 1 -1))))"
        )
        assert pattern.taps[0].coeff.kind is CoeffKind.SCALAR

    def test_eoshift_supported(self):
        pattern = parse_defstencil(
            "(defstencil s (r x c) (:= r (* c (eoshift x 1 -1))))"
        )
        from repro.stencil.offsets import BoundaryMode

        assert pattern.boundary[1] is BoundaryMode.FILL


class TestDefstencilErrors:
    def test_result_must_be_argument(self):
        with pytest.raises(DefstencilError, match="not an argument"):
            parse_defstencil(
                "(defstencil s (x c) (:= r (* c (cshift x 1 -1))))"
            )

    def test_two_sources_rejected(self):
        with pytest.raises(DefstencilError, match="same variable"):
            parse_defstencil(
                "(defstencil s (r x y c) "
                "(:= r (+ (* c (cshift x 1 -1)) (* c (cshift y 1 1)))))"
            )

    def test_not_defstencil(self):
        with pytest.raises(DefstencilError):
            parse_defstencil("(defun f (x) x)")

    def test_no_shifts_rejected(self):
        with pytest.raises(DefstencilError, match="cannot identify"):
            parse_defstencil("(defstencil s (r x c) (:= r (* c x)))")

    def test_three_factor_product_rejected(self):
        with pytest.raises(DefstencilError, match="two factors"):
            parse_defstencil(
                "(defstencil s (r x a b) (:= r (* a b (cshift x 1 -1))))"
            )

    def test_missing_body(self):
        with pytest.raises(DefstencilError):
            parse_defstencil("(defstencil s (r x) (single-float))")


class TestEoshiftBoundary:
    """The EOSHIFT boundary value becomes the pattern's ``fill_value``,
    as in the Fortran recognizer."""

    def test_boundary_becomes_fill_value(self):
        pattern = parse_defstencil(
            "(defstencil k (r x c1) (:= r (* c1 (eoshift x 1 +1 2.0))))"
        )
        assert pattern.fill_value == 2.0

    def test_default_boundary_is_zero(self):
        pattern = parse_defstencil(
            "(defstencil k (r x c1) (:= r (* c1 (eoshift x 1 +1))))"
        )
        assert pattern.fill_value == 0.0

    def test_agreeing_terms_share_the_boundary(self):
        pattern = parse_defstencil(
            "(defstencil k (r x c1 c2) (:= r (+ (* c1 (eoshift x 1 -1 -0.5))"
            " (* c2 (eoshift (eoshift x 2 1 -0.5) 1 1 -0.5)))))"
        )
        assert pattern.fill_value == -0.5

    def test_disagreeing_boundaries_rejected(self):
        with pytest.raises(DefstencilError, match="boundary fill value"):
            parse_defstencil(
                "(defstencil k (r x c1 c2) (:= r (+ (* c1 (eoshift x 1 -1 2.0))"
                " (* c2 (eoshift x 2 1 3.0)))))"
            )

    def test_matches_fortran_front_end(self):
        from repro.fortran.parser import parse_assignment
        from repro.fortran.recognizer import recognize_assignment

        lisp = parse_defstencil(
            "(defstencil k (r x c1 c2) (:= r (+ (* c1 (eoshift x 1 +1 2.5))"
            " (* c2 (cshift x 2 -1)))))"
        )
        fortran = recognize_assignment(
            parse_assignment(
                "R = C1 * EOSHIFT(X, 1, +1, 2.5) + C2 * CSHIFT(X, 2, -1)"
            )
        )
        assert lisp.fill_value == fortran.fill_value == 2.5
        assert lisp.boundary == fortran.boundary

    def test_compiled_run_uses_the_boundary(self):
        import numpy as np

        from repro.baseline.reference import reference_stencil
        from repro.compiler.driver import compile_stencil
        from repro.machine.machine import CM2
        from repro.machine.params import MachineParams
        from repro.runtime.cm_array import CMArray
        from repro.runtime.stencil_op import apply_stencil

        pattern = parse_defstencil(
            "(defstencil k (r x c1 c2) (:= r (+ (* c1 (eoshift x 1 +1 2.0))"
            " (* c2 (eoshift x 2 -1 2.0)))))"
        )
        params = MachineParams(num_nodes=4)
        machine = CM2(params)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8, 8)).astype(np.float32)
        coeffs = {
            name: rng.standard_normal((8, 8)).astype(np.float32)
            for name in ("C1", "C2")
        }
        run = apply_stencil(
            compile_stencil(pattern, params),
            CMArray.from_numpy("X", machine, x),
            {n: CMArray.from_numpy(n, machine, c) for n, c in coeffs.items()},
            "R",
        )
        np.testing.assert_array_equal(
            run.result.to_numpy(), reference_stencil(pattern, x, coeffs)
        )
        # The bottom-left corner reads past both edges: 2.0, not 0.0.
        two = np.float32(2.0)
        c1, c2 = coeffs["C1"][-1, 0], coeffs["C2"][-1, 0]
        assert run.result.to_numpy()[-1, 0] == two * c1 + two * c2
