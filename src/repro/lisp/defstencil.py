"""The ``defstencil`` front end: the paper's first (Lisp) interface.

Accepts forms like the paper's section 6 example::

    (defstencil cross (r x c1 c2 c3 c4 c5)
      (single-float single-float)
      (:= r (+ (* c1 (cshift x 1 -1))
               (* c2 (cshift x 2 -1))
               (* c3 x)
               (* c4 (cshift x 2 +1))
               (* c5 (cshift x 1 +1)))))

and produces the same :class:`~repro.stencil.pattern.StencilPattern` the
Fortran front end would.  Positional ``(cshift x k m)`` means ``DIM=k,
SHIFT=m``, matching the paper's examples in both syntaxes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from ..stencil.offsets import (
    BoundaryMode,
    MixedBoundaryError,
    Shift,
    ShiftKind,
    compose_boundary_modes,
    compose_offsets,
)
from ..stencil.pattern import Coefficient, StencilPattern, Tap
from .sexpr import Sexpr, SexprError, Symbol, read

_SHIFT_SYMBOLS = {"CSHIFT": ShiftKind.CSHIFT, "EOSHIFT": ShiftKind.EOSHIFT}


class DefstencilError(ValueError):
    """A defstencil form outside the supported shape."""


def _symbol_name(form: Sexpr, what: str) -> str:
    if not isinstance(form, Symbol):
        raise DefstencilError(f"{what} must be a symbol, found {form!r}")
    return form.name


def _as_int(form: Sexpr, what: str) -> int:
    if isinstance(form, int):
        return form
    raise DefstencilError(f"{what} must be an integer, found {form!r}")


def _parse_shift_chain(form: Sexpr) -> Tuple[str, Tuple[Shift, ...]]:
    """Unwrap nested (cshift ...) / (eoshift ...) down to the root symbol."""
    shifts: List[Shift] = []
    while isinstance(form, list) and form:
        head = form[0]
        if not (isinstance(head, Symbol) and head.name in _SHIFT_SYMBOLS):
            break
        kind = _SHIFT_SYMBOLS[head.name]
        if len(form) not in (4, 5) or (len(form) == 5 and kind is not ShiftKind.EOSHIFT):
            raise DefstencilError(
                f"({head.name.lower()} x dim shift) takes exactly those "
                f"arguments, found {form!r}"
            )
        dim = _as_int(form[2], "shift DIM")
        amount = _as_int(form[3], "shift SHIFT")
        boundary = 0.0
        if len(form) == 5:
            if not isinstance(form[4], (int, float)):
                raise DefstencilError("EOSHIFT boundary must be a number")
            boundary = float(form[4])
        shifts.append(Shift(kind=kind, dim=dim, amount=amount, boundary=boundary))
        form = form[1]
    if not isinstance(form, Symbol):
        raise DefstencilError(
            f"shift chain must bottom out in a symbol, found {form!r}"
        )
    shifts.reverse()  # innermost first
    return form.name, tuple(shifts)


def _flatten_sum(form: Sexpr) -> List[Sexpr]:
    if isinstance(form, list) and form and form[0] == Symbol("+"):
        terms: List[Sexpr] = []
        for item in form[1:]:
            terms.extend(_flatten_sum(item))
        return terms
    return [form]


def _parse_term(
    form: Sexpr, source_hint: Optional[str]
) -> Tuple[Optional[str], Optional[Tuple[str, Tuple[Shift, ...]]], Optional[float]]:
    """Classify one additive term.

    Returns ``(coeff_name, (root, shifts) or None, scalar or None)``.
    """
    if isinstance(form, Symbol):
        name = form.name
        if source_hint is not None and name == source_hint:
            return None, (name, ()), None
        return name, None, None
    if isinstance(form, (int, float)):
        return None, None, float(form)
    if isinstance(form, list) and form:
        head = form[0]
        if isinstance(head, Symbol) and head.name in _SHIFT_SYMBOLS:
            return None, _parse_shift_chain(form), None
        if head == Symbol("*"):
            factors = form[1:]
            if len(factors) != 2:
                raise DefstencilError(
                    f"(* ...) terms must have exactly two factors: {form!r}"
                )
            coeff_name: Optional[str] = None
            chain: Optional[Tuple[str, Tuple[Shift, ...]]] = None
            scalar: Optional[float] = None
            for factor in factors:
                if isinstance(factor, list):
                    if chain is not None:
                        raise DefstencilError(
                            "a term may contain only one shifted reference"
                        )
                    chain = _parse_shift_chain(factor)
                elif isinstance(factor, Symbol):
                    if source_hint is not None and factor.name == source_hint:
                        if chain is not None:
                            raise DefstencilError(
                                "a term may contain only one data reference"
                            )
                        chain = (factor.name, ())
                    elif coeff_name is None:
                        coeff_name = factor.name
                    else:
                        # Two non-source symbols: the second must be the
                        # (unshifted) data reference; resolved by caller.
                        chain = (factor.name, ())
                elif isinstance(factor, (int, float)):
                    scalar = float(factor)
                else:
                    raise DefstencilError(f"bad factor {factor!r}")
            return coeff_name, chain, scalar
    raise DefstencilError(f"term {form!r} fits no stencil form")


def parse_defstencil(source: Union[str, Sexpr]) -> StencilPattern:
    """Parse a ``defstencil`` form into a stencil pattern.

    Form shape: ``(defstencil name (args...) (types...) (:= result expr))``.
    The type list is validated for arity but otherwise ignored (the
    simulator computes in single precision throughout, like the paper).
    """
    form = read(source) if isinstance(source, str) else source
    if not (isinstance(form, list) and len(form) == 4):
        raise DefstencilError(
            "expected (defstencil name (args...) (types...) (:= r expr))"
        )
    head, name_form, args_form, *rest = form[0], form[1], form[2], form[3]
    body = rest[0] if rest else None
    if head != Symbol("DEFSTENCIL"):
        raise DefstencilError(f"not a defstencil form: {head!r}")
    name = _symbol_name(name_form, "stencil name").lower()
    if not isinstance(args_form, list):
        raise DefstencilError("defstencil argument list must be a list")
    args = [_symbol_name(a, "argument") for a in args_form]
    # form[3] may be the types list when the body follows; re-slice safely:
    types_or_body = form[3]
    if (
        isinstance(types_or_body, list)
        and types_or_body
        and types_or_body[0] == Symbol(":=")
    ):
        body = types_or_body
    else:
        raise DefstencilError("defstencil form is missing its (:= ...) body")
    if len(body) != 3:
        raise DefstencilError("body must be (:= result expression)")
    result = _symbol_name(body[1], "result")
    if result not in args:
        raise DefstencilError(f"result {result} is not an argument")
    return _pattern_from_body(name, args, result, body[2])


def parse_defstencil_with_types(source: Union[str, Sexpr]) -> StencilPattern:
    """Parse the 5-element variant that includes the type list.

    ``(defstencil name (args...) (single-float single-float) (:= r expr))``
    -- the exact shape printed in the paper.
    """
    form = read(source) if isinstance(source, str) else source
    if not (isinstance(form, list) and len(form) == 5):
        raise DefstencilError("expected the 5-element defstencil form")
    types = form[3]
    if not isinstance(types, list) or not all(
        isinstance(t, Symbol) for t in types
    ):
        raise DefstencilError("type list must be a list of type symbols")
    reduced = [form[0], form[1], form[2], form[4]]
    return parse_defstencil(reduced)


def _pattern_from_body(
    name: str, args: Sequence[str], result: str, expr: Sexpr
) -> StencilPattern:
    terms = _flatten_sum(expr)
    # First pass to find the source: the root of any shift chain.
    roots = set()
    for term in terms:
        if isinstance(term, list) and term:
            head = term[0]
            if isinstance(head, Symbol) and head.name in _SHIFT_SYMBOLS:
                roots.add(_parse_shift_chain(term)[0])
            elif head == Symbol("*"):
                for factor in term[1:]:
                    if isinstance(factor, list):
                        roots.add(_parse_shift_chain(factor)[0])
    if len(roots) > 1:
        raise DefstencilError(
            f"all shiftings must shift the same variable, found {sorted(roots)}"
        )
    source = roots.pop() if roots else None

    taps: List[Tap] = []
    boundary = {}
    fill_value: Optional[float] = None
    all_dims: List[int] = []
    parsed = [_parse_term(term, source) for term in terms]
    if source is None:
        # No shifts anywhere: infer the data variable as in the Fortran
        # front end -- the symbol shared by every two-name product.
        raise DefstencilError(
            "cannot identify the shifted variable (no cshift/eoshift)"
        )
    for coeff_name, chain, scalar in parsed:
        if chain is not None:
            all_dims.extend(s.dim for s in chain[1])
    plane = _plane_dims_from(all_dims)

    for coeff_name, chain, scalar in parsed:
        if coeff_name is not None and scalar is not None:
            raise DefstencilError(
                "a term may not multiply an array coefficient by a scalar"
            )
        if chain is not None:
            root, shifts = chain
            if root != source:
                raise DefstencilError(
                    f"all shiftings must shift {source}, found {root}"
                )
            offsets = compose_offsets(shifts)
            dy = offsets.get(plane[0], 0)
            dx = offsets.get(plane[1], 0)
            if coeff_name is not None:
                coeff = Coefficient.array(coeff_name)
            elif scalar is not None:
                coeff = Coefficient.scalar(scalar)
            else:
                coeff = Coefficient.unit()
            taps.append(Tap(offset=(dy, dx), coeff=coeff, shifts=shifts))
            try:
                for dim, mode in compose_boundary_modes(shifts).items():
                    previous = boundary.get(dim)
                    if previous is not None and previous is not mode:
                        raise DefstencilError(
                            f"mixed boundary modes along dimension {dim}"
                        )
                    boundary[dim] = mode
            except MixedBoundaryError as exc:
                raise DefstencilError(str(exc)) from exc
            for shift in shifts:
                if shift.kind is ShiftKind.EOSHIFT:
                    if fill_value is not None and fill_value != shift.boundary:
                        raise DefstencilError(
                            "EOSHIFT terms disagree on the boundary fill "
                            f"value ({fill_value} vs {shift.boundary})"
                        )
                    fill_value = shift.boundary
        elif coeff_name is not None:
            taps.append(
                Tap(
                    offset=(0, 0),
                    coeff=Coefficient.array(coeff_name),
                    is_constant_term=True,
                )
            )
        elif scalar is not None:
            taps.append(
                Tap(
                    offset=(0, 0),
                    coeff=Coefficient.scalar(scalar),
                    is_constant_term=True,
                )
            )
        else:
            raise DefstencilError("term fits no stencil form")
    return StencilPattern(
        taps,
        result=result,
        source=source,
        plane_dims=plane,
        boundary=boundary,
        fill_value=fill_value if fill_value is not None else 0.0,
        name=name,
    )


def _plane_dims_from(dims: Sequence[int]) -> Tuple[int, int]:
    unique = sorted(set(dims))
    if len(unique) > 2:
        raise DefstencilError("shifts along more than two distinct dimensions")
    if not unique:
        return (1, 2)
    if len(unique) == 1:
        dim = unique[0]
        other = 1 if dim != 1 else 2
        return tuple(sorted((dim, other)))  # type: ignore[return-value]
    return (unique[0], unique[1])
