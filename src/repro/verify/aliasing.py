"""Static aliasing checks for stencil calls.

The batched executor computes the result strip by strip from the padded
halo buffer and the coefficient/extra-term buffers; if the destination
array aliases any of them the answer becomes order-dependent (whichever
strip writes first changes what a later strip reads).  The Fortran
recognizer already rejects ``R = ... CSHIFT(R, ...)`` at the source
level; these checks close the same hole at the run-time API, where
callers hand over arrays directly (both entry points run them, by
name, for every filter, before anything is allocated):

* ``RS601`` the destination is (or is named as) the shifted source;
* ``RS602`` the destination aliases an ARRAY coefficient -- the passed
  array, its statement name, or a statement name the coefficient
  bindings would re-point mid-call;
* ``RS603`` (warning) the destination aliases a fused extra-term source
  array.  Extra terms are read only at offset (0, 0) and every read of
  a point precedes that point's store, so the in-place carried-field
  update ``U = stencil(...) + c * U`` is well-defined in all three
  execution modes; the warning flags the intent without rejecting it.

Sources and coefficients aliasing *each other* are read-only and remain
legal (``R = C * X`` with ``C is X`` is well-defined).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..stencil.pattern import CoeffKind
from .diagnostics import Diagnostic, plan_error, plan_warning


class ExecutionSetupError(ValueError):
    """A stencil call's arguments do not match its compiled filters.

    Defined here, not in :mod:`repro.runtime`, so that this package
    never imports the run time (the compile cache imports it); the run
    time re-exports it from :mod:`repro.runtime.cm_array`.
    """


class AliasingError(ExecutionSetupError):
    """The destination of a stencil call aliases an input."""

    def __init__(self, diagnostics: List[Diagnostic]) -> None:
        self.diagnostics = diagnostics
        super().__init__("; ".join(d.describe() for d in diagnostics))


def check_aliasing(
    pattern,
    *,
    result_name: str,
    source_name: str,
    coefficient_arrays: Optional[Dict[str, str]] = None,
    same_object: bool = False,
) -> List[Diagnostic]:
    """Statically check one call shape, by name.

    Args:
        pattern: the compiled (possibly fused) stencil pattern.
        result_name: name of the destination array.
        source_name: name of the shifted source array.
        coefficient_arrays: statement name -> passed array name, for
            coefficients bound at call time.
        same_object: the caller passed the very same array object as
            both source and destination (caught even under different
            names, which the name checks alone would miss).
    """
    diagnostics: List[Diagnostic] = []
    coefficient_arrays = coefficient_arrays or {}
    statement = pattern.name or "stencil"

    if same_object or result_name == source_name:
        diagnostics.append(
            plan_error(
                "RS601",
                f"{statement}: destination {result_name!r} aliases the "
                f"shifted source {source_name!r}; strips read neighbors "
                "the earlier strips would already have overwritten",
            )
        )

    coefficient_names = set(pattern.coefficient_names())
    bound_names = {name for name in coefficient_arrays.values()}
    if result_name in coefficient_names or result_name in bound_names:
        diagnostics.append(
            plan_error(
                "RS602",
                f"{statement}: destination {result_name!r} aliases an "
                "ARRAY coefficient; the coefficient streams from memory "
                "while the destination is being written",
            )
        )

    for term in pattern.extra_terms:
        if term.source == result_name:
            diagnostics.append(
                plan_warning(
                    "RS603",
                    f"{statement}: destination {result_name!r} aliases the "
                    f"fused extra-term source {term.source!r} (in-place "
                    "carried-field update; well-defined, but bit-for-bit "
                    "comparisons against a two-buffer reference will see "
                    "the updated field)",
                )
            )
        coeff = term.coeff
        if coeff.kind is CoeffKind.ARRAY and coeff.name == result_name:
            diagnostics.append(
                plan_error(
                    "RS602",
                    f"{statement}: destination {result_name!r} aliases the "
                    f"fused extra-term coefficient {coeff.name!r}",
                )
            )
    return diagnostics
