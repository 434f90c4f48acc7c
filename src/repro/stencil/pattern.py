"""The stencil intermediate representation.

A *stencil* is the pattern of neighboring array elements that contribute to
each output position of an array assignment of the paper's form::

    R = T + T + ... + T
    T ::= c * s(x)  |  s(x) * c  |  s(x)  |  c

Each term becomes a :class:`Tap`: a grid offset (reduced from the term's
CSHIFT/EOSHIFT chain), a coefficient (an array name, a scalar literal, or
the implicit unit for a bare ``s(x)``), and a flag for constant-only terms
(the bare ``c`` form, which contributes a coefficient value that is never
multiplied by a data element).  A pattern may also carry fused extra
terms (:class:`ExtraTerm`): ``c * y`` with ``y`` a second array, unshifted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

from .offsets import BoundaryMode, Shift

Offset = Tuple[int, int]


class CoeffKind(enum.Enum):
    """What multiplies the data element of a term."""

    ARRAY = "array"  # a whole-array coefficient, e.g. C1 * CSHIFT(X, ...)
    SCALAR = "scalar"  # a literal constant coefficient
    UNIT = "unit"  # a bare s(x) term: implicit coefficient 1.0


@dataclass(frozen=True)
class Coefficient:
    """The coefficient of one stencil term."""

    kind: CoeffKind
    name: Optional[str] = None  # array name when kind is ARRAY
    value: Optional[float] = None  # literal when kind is SCALAR

    def __post_init__(self) -> None:
        if self.kind is CoeffKind.ARRAY and not self.name:
            raise ValueError("array coefficient requires a name")
        if self.kind is CoeffKind.SCALAR and self.value is None:
            raise ValueError("scalar coefficient requires a value")

    @staticmethod
    def array(name: str) -> "Coefficient":
        return Coefficient(CoeffKind.ARRAY, name=name)

    @staticmethod
    def scalar(value: float) -> "Coefficient":
        return Coefficient(CoeffKind.SCALAR, value=value)

    @staticmethod
    def unit() -> "Coefficient":
        return Coefficient(CoeffKind.UNIT)

    def describe(self) -> str:
        if self.kind is CoeffKind.ARRAY:
            return str(self.name)
        if self.kind is CoeffKind.SCALAR:
            return repr(self.value)
        return "1.0"


@dataclass(frozen=True)
class Tap:
    """One term of a stencil: ``coeff * x[i + dy, j + dx]``.

    ``shifts`` preserves the original intrinsic chain (innermost first) so
    the exact-semantics reference can replay it; ``offset`` is its
    reduction onto the stencil plane.

    A tap with ``is_constant_term`` set represents the bare ``c`` form: the
    coefficient value is added in without touching the data array (the
    compiler implements it as ``c * 1.0`` using the reserved 1.0 register).
    """

    offset: Offset
    coeff: Coefficient
    shifts: Tuple[Shift, ...] = ()
    is_constant_term: bool = False

    def __post_init__(self) -> None:
        if self.is_constant_term and self.offset != (0, 0):
            raise ValueError("constant terms carry no data offset")
        if self.is_constant_term and self.coeff.kind is CoeffKind.UNIT:
            raise ValueError("a constant term must name its coefficient")

    @property
    def dy(self) -> int:
        return self.offset[0]

    @property
    def dx(self) -> int:
        return self.offset[1]

    @property
    def reads_data(self) -> bool:
        """Whether this tap reads the shifted data array at all."""
        return not self.is_constant_term

    def useful_flops(self, *, first: bool) -> int:
        """Useful floating-point operations this tap contributes per point.

        The paper counts only useful operations: a coefficient tap is a
        multiply plus an add, except that the very first accumulation adds
        a product to zero and that add is not useful.  A unit-coefficient
        tap contributes only its add (multiplying by 1.0 is not useful
        work), and a constant term likewise contributes only its add.
        """
        has_multiply = self.coeff.kind is not CoeffKind.UNIT and not (
            self.is_constant_term
        )
        # Constant terms execute c * 1.0 + acc: the multiply by 1.0 is not
        # useful; bare s(x) terms execute x * 1.0 + acc, same story.
        flops = 1 if has_multiply else 0  # the multiply
        flops += 0 if first else 1  # the add (first add is to zero)
        return flops

    def describe(self) -> str:
        base = "1" if self.is_constant_term else f"x[{self.dy:+d},{self.dx:+d}]"
        if self.coeff.kind is CoeffKind.UNIT:
            return base
        return f"{self.coeff.describe()} * {base}"


@dataclass(frozen=True)
class ExtraTerm:
    """A fused term reading offset (0, 0) of a *second* source array.

    The paper's compiler requires all shiftings in a statement to shift
    one variable; its stated future work is handling the Gordon Bell
    kernel's "ten terms as one stencil pattern" -- the tenth term reads a
    different time level.  An extra term streams its coefficient from
    memory like any other tap while its data element, loaded fresh each
    line (no reuse is possible across results), sits in a dedicated
    register.
    """

    source: str
    coeff: Coefficient


@dataclass(frozen=True)
class BorderWidths:
    """How far a stencil extends from its center in each direction.

    The convention follows the paper's diagrams: dimension 1 is drawn
    vertically with North toward smaller indices, dimension 2 horizontally
    with West toward smaller indices.  A tap at offset ``(dy, dx)`` reading
    ``x[i+dy, j+dx]`` with ``dy < 0`` therefore reaches North.
    """

    north: int
    south: int
    west: int
    east: int

    @property
    def max_width(self) -> int:
        """The padding used on all four sides by the halo exchange.

        The run-time library pads the subgrid on all four sides by the
        largest of the four border widths because the four-neighbor
        exchange primitive makes the extra data free (paper section 5.1).
        """
        return max(self.north, self.south, self.west, self.east)

    def as_tuple(self) -> Tuple[int, int, int, int]:
        return (self.north, self.south, self.west, self.east)


class StencilPattern:
    """An ordered collection of taps plus statement-level metadata.

    Tap order is semantically meaningful: the compiled multiply-add chain
    accumulates terms in this order, which fixes the floating-point
    rounding behaviour that the correctness tests check bit-for-bit.

    Attributes:
        taps: the stencil terms, in source order.
        result: name of the assigned array (``R`` in the paper).
        source: name of the shifted data array (``X``); the paper's
            compiler requires all shiftings in one statement to shift the
            same variable.
        plane_dims: the two 1-based array dimensions the stencil lives in.
        boundary: boundary mode per plane dimension (statement-level; the
            recognizer enforces uniformity).
        fill_value: fill used when a plane dimension has FILL boundary.
        name: optional human-readable label.
        extra_terms: fused second-source terms, appended to every
            result's multiply-add chain after the taps.  They read offset
            (0, 0), so they never widen the borders or the corner reach.
    """

    def __init__(
        self,
        taps: Sequence[Tap],
        *,
        result: str = "R",
        source: str = "X",
        plane_dims: Tuple[int, int] = (1, 2),
        boundary: Optional[Dict[int, BoundaryMode]] = None,
        fill_value: float = 0.0,
        name: Optional[str] = None,
        extra_terms: Sequence[ExtraTerm] = (),
    ) -> None:
        taps = list(taps)
        if not taps:
            raise ValueError("a stencil needs at least one tap")
        if plane_dims[0] == plane_dims[1]:
            raise ValueError("stencil plane dimensions must differ")
        seen: Dict[Tuple[Offset, bool], Tap] = {}
        for tap in taps:
            key = (tap.offset, tap.is_constant_term)
            if key in seen and tap.reads_data:
                # Duplicate data offsets are legal Fortran but the register
                # allocator assumes one register per multistencil position;
                # the recognizer folds duplicates before we get here.
                raise ValueError(
                    f"duplicate tap at offset {tap.offset}; fold "
                    f"coefficients before building the pattern"
                )
            seen[key] = tap
        self.taps: Tuple[Tap, ...] = tuple(taps)
        self.result = result
        self.source = source
        self.plane_dims = plane_dims
        self.boundary = dict(boundary or {})
        for dim in plane_dims:
            self.boundary.setdefault(dim, BoundaryMode.CIRCULAR)
        self.fill_value = fill_value
        self.name = name
        self.extra_terms: Tuple[ExtraTerm, ...] = tuple(extra_terms)
        if any(term.source == source for term in self.extra_terms):
            raise ValueError(
                f"extra term reads the primary source {source}; "
                "express it as an ordinary tap instead"
            )
        dys = [tap.dy for tap in taps if tap.reads_data] or [0]
        dxs = [tap.dx for tap in taps if tap.reads_data] or [0]
        self._border_widths = BorderWidths(
            north=max(0, -min(dys)),
            south=max(0, max(dys)),
            west=max(0, -min(dxs)),
            east=max(0, max(dxs)),
        )

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------

    @property
    def data_taps(self) -> Tuple[Tap, ...]:
        """Taps that read the data array (everything but constant terms)."""
        return tuple(tap for tap in self.taps if tap.reads_data)

    @property
    def constant_taps(self) -> Tuple[Tap, ...]:
        return tuple(tap for tap in self.taps if tap.is_constant_term)

    @property
    def offsets(self) -> Tuple[Offset, ...]:
        """Offsets of the data taps, in tap order."""
        return tuple(tap.offset for tap in self.data_taps)

    @property
    def num_points(self) -> int:
        """Number of distinct data positions the stencil touches."""
        return len(set(self.offsets))

    def border_widths(self) -> BorderWidths:
        """Extent of the pattern in each direction from its center
        (computed once: the taps are fixed at construction)."""
        return self._border_widths

    def needs_corner_exchange(self) -> bool:
        """Whether any tap reaches a diagonal neighbor's data.

        Patterns like the 5-point cross touch no corner of the halo, so the
        third communication step (the diagonal corner exchange) may be
        skipped -- the quick test the paper says "does save a noticeable
        amount of time for smaller arrays" (section 5.1).
        """
        return any(tap.dy != 0 and tap.dx != 0 for tap in self.data_taps)

    def is_fourfold_symmetric(self) -> bool:
        """Whether the set of data offsets has fourfold (90-degree) symmetry."""
        points = set(self.offsets)
        return all((-dx, dy) in points for (dy, dx) in points)

    # ------------------------------------------------------------------
    # Work accounting
    # ------------------------------------------------------------------

    def useful_flops_per_point(self) -> int:
        """Useful flops per output position, per the paper's counting rule.

        For a k-tap all-coefficient stencil this is ``2k - 1``: k multiplies
        and k-1 adds (the first add merely adds a product to zero).  Each
        fused extra term adds a multiply and an add.
        """
        return sum(
            tap.useful_flops(first=(index == 0))
            for index, tap in enumerate(self.taps)
        ) + 2 * len(self.extra_terms)

    def issued_multiply_adds_per_point(self) -> int:
        """Multiply-add cycles the machine issues per output position.

        Every term costs exactly one chained multiply-add, useful or not.
        """
        return len(self.taps) + len(self.extra_terms)

    def needs_unit_register(self) -> bool:
        """Whether the reserved 1.0 register is required.

        True when the expression contains a constant term (bare ``c``) or a
        bare ``s(x)`` term; both are executed as a multiplication by 1.0.
        A unit-coefficient extra term streams the ones page instead.
        """
        return any(
            tap.is_constant_term or tap.coeff.kind is CoeffKind.UNIT
            for tap in self.taps
        )

    def coefficient_names(self) -> Tuple[str, ...]:
        """Names of the coefficient arrays, in chain order (taps, then
        extra terms), without repeats."""
        return tuple(
            dict.fromkeys(
                term.coeff.name
                for term in self.taps + self.extra_terms
                if term.coeff.kind is CoeffKind.ARRAY
            )
        )

    def array_names(self) -> Tuple[str, ...]:
        """All array names the statement references, each once: result,
        source, coefficients, then fused extra sources in statement
        order."""
        return tuple(
            dict.fromkeys(
                (self.result, self.source)
                + self.coefficient_names()
                + tuple(term.source for term in self.extra_terms)
            )
        )

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------

    def pictogram(self, *, bullet: str = "@", mark: str = "#", empty: str = ".") -> str:
        """Render the stencil as the paper's grid-of-squares diagram.

        The bullet marks the center (result position); marks show data
        positions.  If the center itself is a data position it is drawn as
        the bullet (the paper draws it the same way).
        """
        borders = self.border_widths()
        rows = []
        for dy in range(-borders.north, borders.south + 1):
            cells = []
            for dx in range(-borders.west, borders.east + 1):
                if (dy, dx) == (0, 0):
                    cells.append(bullet)
                elif (dy, dx) in set(self.offsets):
                    cells.append(mark)
                else:
                    cells.append(empty)
            rows.append(" ".join(cells))
        return "\n".join(rows)

    def describe(self) -> str:
        label = self.name or "stencil"
        terms = [tap.describe() for tap in self.taps] + [
            f"{term.coeff.describe()} * {term.source}[+0,+0]"
            for term in self.extra_terms
        ]
        return f"{label}: {self.result} = {' + '.join(terms)}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StencilPattern(name={self.name!r}, taps={len(self.taps)}, "
            f"borders={self.border_widths().as_tuple()})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StencilPattern):
            return NotImplemented
        return (
            self.taps == other.taps
            and self.result == other.result
            and self.source == other.source
            and self.plane_dims == other.plane_dims
            and self.boundary == other.boundary
            and self.fill_value == other.fill_value
            and self.extra_terms == other.extra_terms
        )

    def __hash__(self) -> int:
        return hash(
            (self.taps, self.result, self.source, self.plane_dims, self.extra_terms)
        )


def pattern_from_offsets(
    offsets: Iterable[Offset],
    *,
    coeff_prefix: str = "C",
    name: Optional[str] = None,
    **kwargs,
) -> StencilPattern:
    """Convenience constructor: one array coefficient per offset.

    Coefficient arrays are named ``C1, C2, ...`` in offset order, matching
    the paper's examples.
    """
    taps = [
        Tap(offset=tuple(offset), coeff=Coefficient.array(f"{coeff_prefix}{i}"))
        for i, offset in enumerate(offsets, start=1)
    ]
    return StencilPattern(taps, name=name, **kwargs)
