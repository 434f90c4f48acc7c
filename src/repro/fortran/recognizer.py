"""Recognize stencil-form array assignments and build their patterns.

The Connection Machine Convolution Compiler processes single arithmetic
assignment statements of the form ``R = T + T + ... + T`` where each term
is ``c * s(x)``, ``s(x) * c``, ``s(x)``, or ``c``; every ``s(x)`` is a
CSHIFT/EOSHIFT chain, and all shiftings within a statement must shift the
same variable name (paper section 2).

Note one quirk faithfully reproduced from the paper: its positional call
form ``CSHIFT(X, k, m)`` means ``DIM=k, SHIFT=m`` -- the *opposite* order
from standard Fortran 90's ``CSHIFT(ARRAY, SHIFT, DIM)``.  All the paper's
examples (e.g. ``CSHIFT(X, 2, +1)`` for the East neighbor) use this
convention, so we follow it; the keyword forms are unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..stencil.offsets import (
    BoundaryMode,
    MixedBoundaryError,
    Shift,
    ShiftKind,
    compose_boundary_modes,
    compose_offsets,
)
from ..stencil.pattern import Coefficient, CoeffKind, StencilPattern, Tap
from .ast_nodes import (
    Assignment,
    BinOp,
    Call,
    Expr,
    IntLit,
    Name,
    RealLit,
    Subroutine,
    UnaryOp,
)
from .errors import DiagnosticSink, NotAStencilError, SourceLocation, Span

_SHIFT_FUNCS = {"CSHIFT": ShiftKind.CSHIFT, "EOSHIFT": ShiftKind.EOSHIFT}


# ----------------------------------------------------------------------
# Term flattening
# ----------------------------------------------------------------------


def _flatten_sum(expr: Expr, sign: int = +1) -> List[Tuple[int, Expr]]:
    """Flatten an expression over +/- into signed terms, in source order."""
    if isinstance(expr, BinOp) and expr.op in ("+", "-"):
        right_sign = sign if expr.op == "+" else -sign
        return _flatten_sum(expr.left, sign) + _flatten_sum(expr.right, right_sign)
    if isinstance(expr, UnaryOp) and expr.op in ("+", "-"):
        inner_sign = sign if expr.op == "+" else -sign
        return _flatten_sum(expr.operand, inner_sign)
    return [(sign, expr)]


def _flatten_product(expr: Expr) -> List[Expr]:
    """Flatten a term over ``*`` into factors, in source order."""
    if isinstance(expr, BinOp) and expr.op == "*":
        return _flatten_product(expr.left) + _flatten_product(expr.right)
    if isinstance(expr, BinOp) and expr.op == "/":
        raise NotAStencilError(
            "division is not part of the sum-of-products stencil form",
            expr.location,
            span=expr.span,
        )
    return [expr]


# ----------------------------------------------------------------------
# Factor classification
# ----------------------------------------------------------------------


@dataclass
class _ShiftChain:
    root: str
    shifts: Tuple[Shift, ...]  # innermost first
    location: SourceLocation
    span: Optional[Span] = None


def _const_int(expr: Expr, what: str) -> int:
    """Evaluate a compile-time integer (allowing a unary sign)."""
    sign = 1
    while isinstance(expr, UnaryOp) and expr.op in ("+", "-"):
        if expr.op == "-":
            sign = -sign
        expr = expr.operand
    if isinstance(expr, IntLit):
        return sign * expr.value
    raise NotAStencilError(
        f"{what} must be a compile-time integer constant, "
        f"found {expr.describe()}",
        expr.location,
        span=expr.span,
    )


def _const_real(expr: Expr, what: str) -> float:
    sign = 1.0
    while isinstance(expr, UnaryOp) and expr.op in ("+", "-"):
        if expr.op == "-":
            sign = -sign
        expr = expr.operand
    if isinstance(expr, (IntLit, RealLit)):
        return sign * float(expr.value)
    raise NotAStencilError(
        f"{what} must be a compile-time constant, found {expr.describe()}",
        expr.location,
        span=expr.span,
    )


def _unwrap_shift_call(call: Call) -> Tuple[Expr, Shift]:
    """Decompose one CSHIFT/EOSHIFT call into (inner expression, Shift)."""
    kind = _SHIFT_FUNCS[call.func]
    if not call.args:
        raise NotAStencilError(
            f"{call.func} needs an array argument", call.location, span=call.span
        )
    inner = call.args[0]
    positional = list(call.args[1:])
    kwargs = dict(call.kwargs)
    dim: Optional[int] = None
    dim_expr: Optional[Expr] = None
    amount: Optional[int] = None
    boundary = 0.0
    # Paper convention: positional extras are (dim, shift).
    if positional:
        dim_expr = positional[0]
        dim = _const_int(dim_expr, f"{call.func} DIM")
    if len(positional) >= 2:
        amount = _const_int(positional[1], f"{call.func} SHIFT")
    if len(positional) >= 3:
        if kind is not ShiftKind.EOSHIFT:
            raise NotAStencilError(
                f"too many positional arguments to {call.func}",
                call.location,
                span=call.span,
            )
        boundary = _const_real(positional[2], "EOSHIFT BOUNDARY")
    for key, value in kwargs.items():
        if key == "DIM":
            dim_expr = value
            dim = _const_int(value, f"{call.func} DIM")
        elif key == "SHIFT":
            amount = _const_int(value, f"{call.func} SHIFT")
        elif key == "BOUNDARY" and kind is ShiftKind.EOSHIFT:
            boundary = _const_real(value, "EOSHIFT BOUNDARY")
        else:
            raise NotAStencilError(
                f"unknown keyword {key}= in {call.func}",
                call.location,
                span=call.span,
            )
    if dim is None or amount is None:
        raise NotAStencilError(
            f"{call.func} requires both DIM and SHIFT",
            call.location,
            span=call.span,
        )
    if dim < 1:
        raise NotAStencilError(
            f"{call.func} DIM must be a 1-based array dimension, got {dim}",
            dim_expr.location,
            span=dim_expr.span,
        )
    return inner, Shift(kind=kind, dim=dim, amount=amount, boundary=boundary)


def _try_shift_chain(expr: Expr) -> Optional[_ShiftChain]:
    """If ``expr`` is a CSHIFT/EOSHIFT chain over a name, decompose it."""
    shifts: List[Shift] = []
    location = expr.location
    span = expr.span
    while isinstance(expr, Call) and expr.func in _SHIFT_FUNCS:
        expr, shift = _unwrap_shift_call(expr)
        shifts.append(shift)  # outermost collected first...
    if not shifts:
        return None
    if not isinstance(expr, Name):
        raise NotAStencilError(
            "the shifted expression must bottom out in a plain array name, "
            f"found {expr.describe()}",
            expr.location,
            span=expr.span,
        )
    shifts.reverse()  # ...store innermost first
    return _ShiftChain(
        root=expr.ident, shifts=tuple(shifts), location=location, span=span
    )


@dataclass
class _Term:
    """A classified additive term, before tap construction."""

    sign: int
    chain: Optional[_ShiftChain]  # the data reference, if any
    coeff_name: Optional[str]  # array coefficient, if any
    scalar: float  # folded scalar literal factors
    has_scalar: bool
    bare_name: Optional[str]  # an unshifted Name factor (source or coeff)
    location: SourceLocation
    span: Optional[Span] = None


def _classify_term(sign: int, expr: Expr) -> _Term:
    factors = _flatten_product(expr)
    chain: Optional[_ShiftChain] = None
    names: List[Name] = []
    scalar = 1.0
    has_scalar = False
    for factor in factors:
        # Allow signs buried inside the product, e.g. C1 * (-CSHIFT(...)).
        inner = factor
        while isinstance(inner, UnaryOp) and inner.op in ("+", "-"):
            if inner.op == "-":
                sign = -sign
            inner = inner.operand
        maybe_chain = None
        if isinstance(inner, Call):
            if inner.func in _SHIFT_FUNCS:
                maybe_chain = _try_shift_chain(inner)
            else:
                raise NotAStencilError(
                    f"call to {inner.func} is not a shifting intrinsic",
                    inner.location,
                    span=inner.span,
                )
        if maybe_chain is not None:
            if chain is not None:
                raise NotAStencilError(
                    "a term may contain at most one shifted data reference",
                    inner.location,
                    span=inner.span,
                )
            chain = maybe_chain
        elif isinstance(inner, Name):
            names.append(inner)
        elif isinstance(inner, (IntLit, RealLit)):
            scalar *= float(inner.value)
            has_scalar = True
        else:
            raise NotAStencilError(
                f"factor {inner.describe()} is outside the stencil form",
                inner.location,
                span=inner.span,
            )
    if len(names) > (1 if chain is not None else 2):
        raise NotAStencilError(
            "a term may multiply at most one coefficient by one data "
            "reference (sum-of-products form)",
            expr.location,
            span=expr.span,
        )
    coeff_name: Optional[str] = None
    bare_name: Optional[str] = None
    if chain is not None:
        if names:
            coeff_name = names[0].ident
    else:
        if len(names) == 2:
            # name * name with no shifts: one is the source, decided later.
            return _Term(
                sign=sign,
                chain=None,
                coeff_name=names[0].ident,
                scalar=scalar,
                has_scalar=has_scalar,
                bare_name=names[1].ident,
                location=expr.location,
                span=expr.span,
            )
        if len(names) == 1:
            bare_name = names[0].ident
    return _Term(
        sign=sign,
        chain=chain,
        coeff_name=coeff_name,
        scalar=scalar,
        has_scalar=has_scalar,
        bare_name=bare_name,
        location=expr.location,
        span=expr.span,
    )


# ----------------------------------------------------------------------
# Recognition proper
# ----------------------------------------------------------------------


def _determine_source(terms: Sequence[_Term], location: SourceLocation) -> str:
    roots = {term.chain.root for term in terms if term.chain is not None}
    if len(roots) > 1:
        raise NotAStencilError(
            "all shiftings within a statement must shift the same variable; "
            f"found {', '.join(sorted(roots))}",
            location,
        )
    if roots:
        return roots.pop()
    # No shift intrinsics anywhere.  The statement can still be a stencil
    # (all taps at the center) if one name plays the data role in every
    # term; that name must appear in every term that has two names.
    candidates: Optional[set] = None
    for term in terms:
        term_names = {n for n in (term.coeff_name, term.bare_name) if n}
        if len(term_names) == 2:
            candidates = (
                term_names if candidates is None else candidates & term_names
            )
    if candidates is not None and len(candidates) == 1:
        return candidates.pop()
    raise NotAStencilError(
        "cannot identify the shifted variable: the statement contains no "
        "CSHIFT/EOSHIFT and no unambiguous data reference",
        location,
    )


def _plane_dims(
    dims: Sequence[int], location: SourceLocation
) -> Tuple[int, int]:
    unique = sorted(set(dims))
    if len(unique) > 2:
        raise NotAStencilError(
            f"shifts along {len(unique)} distinct dimensions; the stencil "
            "plane is two-dimensional (outer dimensions are looped by the "
            "run-time library)",
            location,
        )
    if not unique:
        return (1, 2)
    if len(unique) == 1:
        dim = unique[0]
        other = 1 if dim != 1 else 2
        return tuple(sorted((dim, other)))  # type: ignore[return-value]
    return (unique[0], unique[1])


def recognize_assignment(
    assignment: Assignment,
    *,
    name: Optional[str] = None,
    ranks: Optional[Dict[str, int]] = None,
) -> StencilPattern:
    """Build a :class:`StencilPattern` from an array assignment.

    Args:
        assignment: the parsed statement.
        name: optional label for the resulting pattern.
        ranks: declared ranks by array name, used for validity checks when
            the statement came from a subroutine with declarations.

    Raises:
        NotAStencilError: the statement is outside the convolution
            compiler's form; the message explains why, in the spirit of
            the directive feedback the paper plans.
    """
    signed_terms = _flatten_sum(assignment.expr)
    terms = [_classify_term(sign, expr) for sign, expr in signed_terms]
    source = _determine_source(terms, assignment.location)
    if assignment.target == source:
        raise NotAStencilError(
            f"the result array {assignment.target} may not also be the "
            "shifted source (the computation reads neighbors after the "
            "assignment would have overwritten them)",
            assignment.location,
            span=assignment.span,
        )

    all_shifts = [
        shift
        for term in terms
        if term.chain is not None
        for shift in term.chain.shifts
    ]
    plane = _plane_dims([s.dim for s in all_shifts], assignment.location)

    taps: List[Tap] = []
    boundary: Dict[int, BoundaryMode] = {}
    fill_value: Optional[float] = None
    for term in terms:
        tap = _build_tap(term, source, plane)
        taps.append(tap)
        if term.chain is not None:
            try:
                modes = compose_boundary_modes(term.chain.shifts)
            except MixedBoundaryError as exc:
                raise NotAStencilError(
                    str(exc), term.location, span=term.span, code="RS102"
                ) from exc
            for dim, mode in modes.items():
                previous = boundary.get(dim)
                if previous is not None and previous is not mode:
                    raise NotAStencilError(
                        f"terms disagree on the boundary treatment of "
                        f"dimension {dim} (CSHIFT vs EOSHIFT); the compiled "
                        "halo exchange needs one mode per dimension",
                        term.location,
                        span=term.span,
                        code="RS102",
                    )
                boundary[dim] = mode
            for shift in term.chain.shifts:
                if shift.kind is ShiftKind.EOSHIFT:
                    if fill_value is not None and fill_value != shift.boundary:
                        raise NotAStencilError(
                            "EOSHIFT terms disagree on the boundary fill "
                            f"value ({fill_value} vs {shift.boundary})",
                            term.location,
                            span=term.span,
                        )
                    fill_value = shift.boundary
            _check_eoshift_monotone(term)

    taps = _fold_duplicates(taps, assignment.location)
    _check_ranks(assignment, source, taps, plane, ranks)
    return StencilPattern(
        taps,
        result=assignment.target,
        source=source,
        plane_dims=plane,
        boundary=boundary,
        fill_value=fill_value if fill_value is not None else 0.0,
        name=name or assignment.target.lower(),
    )


def _check_eoshift_monotone(term: _Term) -> None:
    """Reject EOSHIFT chains that destroy more data than their net offset.

    ``EOSHIFT(EOSHIFT(X,1,+1),1,-1)`` has net offset zero but blanks two
    rows; it is not expressible as a single stencil tap.  Requiring all
    EOSHIFT amounts along one dimension to share a sign keeps the chain
    equivalent to one shift by the net offset.
    """
    signs: Dict[int, int] = {}
    for shift in term.chain.shifts:
        if shift.kind is not ShiftKind.EOSHIFT or shift.amount == 0:
            continue
        sign = 1 if shift.amount > 0 else -1
        previous = signs.get(shift.dim)
        if previous is not None and previous != sign:
            raise NotAStencilError(
                f"EOSHIFT chain along dimension {shift.dim} mixes shift "
                "directions; the blanked region exceeds the net offset and "
                "cannot be expressed as a stencil tap",
                term.location,
                span=term.span,
            )
        signs[shift.dim] = sign


def _build_tap(term: _Term, source: str, plane: Tuple[int, int]) -> Tap:
    scalar = term.scalar if term.has_scalar else None
    if term.sign < 0:
        # Sums of products only: a negated term is representable only when
        # its coefficient is a compile-time scalar we can negate.
        if term.coeff_name is not None:
            raise NotAStencilError(
                "subtraction of an array-coefficient term is outside the "
                "sum-of-products form; negate the coefficient array instead",
                term.location,
                span=term.span,
            )
        scalar = -(scalar if scalar is not None else 1.0)

    if term.chain is not None:
        offsets = compose_offsets(term.chain.shifts)
        dy = offsets.get(plane[0], 0)
        dx = offsets.get(plane[1], 0)
        coeff = _combine_coeff(term.coeff_name, scalar, term.location)
        return Tap(offset=(dy, dx), coeff=coeff, shifts=term.chain.shifts)

    # No shifted reference: the data role falls to a bare occurrence of the
    # source name, otherwise this is a constant term.
    names = {n for n in (term.coeff_name, term.bare_name) if n}
    if source in names:
        other = (names - {source}).pop() if len(names) == 2 else None
        coeff = _combine_coeff(other, scalar, term.location)
        return Tap(offset=(0, 0), coeff=coeff, shifts=())
    if len(names) == 1:
        coeff = _combine_coeff(names.pop(), scalar, term.location)
        return Tap(offset=(0, 0), coeff=coeff, is_constant_term=True)
    if not names and scalar is not None:
        return Tap(
            offset=(0, 0),
            coeff=Coefficient.scalar(scalar),
            is_constant_term=True,
        )
    raise NotAStencilError(
        "term fits no stencil form (c * s(x), s(x) * c, s(x), or c)",
        term.location,
        span=term.span,
    )


def _combine_coeff(
    name: Optional[str], scalar: Optional[float], location: SourceLocation
) -> Coefficient:
    if name is not None and scalar is not None:
        raise NotAStencilError(
            "a term may not multiply an array coefficient by a scalar "
            "literal; fold the scalar into the coefficient array",
            location,
        )
    if name is not None:
        return Coefficient.array(name)
    if scalar is not None:
        return Coefficient.scalar(scalar)
    return Coefficient.unit()


def _fold_duplicates(
    taps: Sequence[Tap], location: SourceLocation
) -> List[Tap]:
    """Fold repeated offsets with scalar coefficients; reject array repeats."""
    out: List[Tap] = []
    index_by_offset: Dict[Tuple[int, int], int] = {}
    for tap in taps:
        if tap.is_constant_term:
            out.append(tap)
            continue
        if tap.offset not in index_by_offset:
            index_by_offset[tap.offset] = len(out)
            out.append(tap)
            continue
        at = index_by_offset[tap.offset]
        existing = out[at]
        scalars = (
            existing.coeff.kind is not CoeffKind.ARRAY
            and tap.coeff.kind is not CoeffKind.ARRAY
        )
        if not scalars:
            raise NotAStencilError(
                f"two terms read the same offset {tap.offset} with array "
                "coefficients; fold the coefficient arrays before compiling",
                location,
            )
        combined = _scalar_value(existing.coeff) + _scalar_value(tap.coeff)
        out[at] = Tap(
            offset=existing.offset,
            coeff=Coefficient.scalar(combined),
            shifts=existing.shifts,
        )
    return out


def _scalar_value(coeff: Coefficient) -> float:
    return 1.0 if coeff.kind is CoeffKind.UNIT else float(coeff.value)


def _check_ranks(
    assignment: Assignment,
    source: str,
    taps: Sequence[Tap],
    plane: Tuple[int, int],
    ranks: Optional[Dict[str, int]],
) -> None:
    if not ranks:
        return
    involved = {assignment.target, source}
    involved.update(
        tap.coeff.name for tap in taps if tap.coeff.kind is CoeffKind.ARRAY
    )
    declared = {name: ranks[name] for name in involved if name in ranks}
    if not declared:
        return
    distinct = set(declared.values())
    if len(distinct) > 1:
        raise NotAStencilError(
            "all arrays in a stencil statement must have the same rank; "
            f"found {declared}",
            assignment.location,
        )
    rank = distinct.pop()
    if max(plane) > rank:
        raise NotAStencilError(
            f"shifts reference dimension {max(plane)} but the arrays have "
            f"rank {rank}",
            assignment.location,
        )


# ----------------------------------------------------------------------
# Subroutine-level entry points (paper versions 2 and 3)
# ----------------------------------------------------------------------


def recognize_subroutine(sub: Subroutine) -> StencilPattern:
    """Version-2 behaviour: the stencil statement isolated in a subroutine.

    The subroutine must contain exactly one assignment; the pattern is
    named after the subroutine.
    """
    if len(sub.statements) != 1:
        raise NotAStencilError(
            f"subroutine {sub.name} must contain exactly one assignment "
            f"statement, found {len(sub.statements)}",
            sub.location,
        )
    ranks = {
        name: decl.rank for decl in sub.declarations for name in decl.names
    }
    return recognize_assignment(
        sub.statements[0], name=sub.name.lower(), ranks=ranks
    )


def scan_subroutine(
    sub: Subroutine, sink: Optional[DiagnosticSink] = None
) -> List[Tuple[Assignment, Optional[StencilPattern]]]:
    """Version-3 behaviour: find stencil candidates inside a subroutine.

    Every assignment is tried; failures on statements carrying a stencil
    directive produce warnings (the feedback the paper's section 6 plans),
    while undirected failures are silently left to the stock compiler.
    """
    sink = sink if sink is not None else DiagnosticSink()
    ranks = {
        name: decl.rank for decl in sub.declarations for name in decl.names
    }
    results: List[Tuple[Assignment, Optional[StencilPattern]]] = []
    for index, statement in enumerate(sub.statements):
        try:
            pattern = recognize_assignment(
                statement,
                name=f"{sub.name.lower()}_{index}",
                ranks=ranks,
            )
        except NotAStencilError as exc:
            if statement.directive is not None:
                sink.warn(
                    f"statement flagged {statement.directive!r} could not "
                    f"be processed by the convolution compiler: {exc.message}",
                    statement.location,
                )
            results.append((statement, None))
        else:
            results.append((statement, pattern))
    return results
