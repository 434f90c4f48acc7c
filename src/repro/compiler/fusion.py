"""Fused multi-source stencils: the paper's stated future work.

Section 7: "The computation in the code that won the Gordon Bell prize
consisted of a nine-point cross stencil plus an additional term from two
time steps before the current one.  This tenth term was added in
separately.  (Future versions of the compiler should be able to handle
all ten terms as one stencil pattern.)"

Here they are one stencil pattern: an *extra term* ``c * y``, with ``y``
a different array read at offset (0, 0), is a field of the stencil IR
(:attr:`~repro.stencil.pattern.StencilPattern.extra_terms`), and
:func:`~repro.compiler.plan.compile_pattern` appends it to every
result's chained multiply-add sequence (its coefficient streaming from
memory, its data element loaded fresh each line into one of ``width``
registers reserved after the ring buffers), eliminating the separate
elementwise pass and its memory traffic entirely.  :func:`fuse` builds
such a pattern from a base one and compiles it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..machine.params import MachineParams
from ..stencil.multistencil import multistencil_widths
from ..stencil.pattern import ExtraTerm, StencilPattern
from .driver import compile_stencil
from .plan import CompiledStencil


def fuse(
    base: StencilPattern,
    extra_terms: Sequence[ExtraTerm],
    params: Optional[MachineParams] = None,
    widths: Sequence[int] = multistencil_widths(),
) -> CompiledStencil:
    """Compile ``base`` with ``extra_terms`` appended to its own (every
    result's chain closes with them), through the memoized (and
    ``RS_VERIFY``-checked) compile driver."""
    if not extra_terms:
        raise ValueError("a fused pattern needs at least one extra term")
    pattern = StencilPattern(
        base.taps,
        result=base.result,
        source=base.source,
        plane_dims=base.plane_dims,
        boundary=base.boundary,
        fill_value=base.fill_value,
        name=f"{base.name or 'stencil'}+{len(extra_terms)}fused",
        extra_terms=base.extra_terms + tuple(extra_terms),
    )
    return compile_stencil(pattern, params, widths)
