"""Multidimensional arrays: the run-time library's outer iteration.

The paper's run-time library "provides the outer loop structure for
strip-mining and for handling multidimensional arrays" (section 1).
This module supplies that outer structure for rank-3 arrays: the first
two dimensions are block-decomposed over the node grid exactly as in
Figure 1, the third dimension is a node-local *depth* axis, and a
:class:`~repro.runtime.cm_array.CMArray3D` holds one stack with depth
leading, like a batch axis.  A 3-D stencil application is therefore one
call of the engine (:mod:`repro.runtime.batch`) over that stack: one
halo exchange and one host call per iteration serve every plane.

Depth-direction taps -- e.g. the out-of-plane neighbors of a 7-point 3-D
Laplacian -- compose with the fusion extension: a tap at depth offset
``dz`` is an extra term whose compiled source name
(:func:`~repro.runtime.cm_array.depth_alias`) the engine reads as a
lead-axis offset of the pass's own padded stack, wrapped or zero-filled
at the depth boundary -- the sequencer's run-time base-address
parameter, ``dz`` planes away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

import numpy as np

from ..compiler.fusion import fuse
from ..compiler.plan import CompiledStencil
from ..machine.params import MachineParams
from ..stencil.offsets import BoundaryMode
from ..stencil.pattern import Coefficient, ExtraTerm, StencilPattern
from .batch import StencilRun, apply_stencil_batch, check_call, run_stencil
from .cm_array import CMArray, CMArray3D, depth_alias
from .stencil_op import apply_stencil


@dataclass(frozen=True)
class DepthTap:
    """An out-of-plane stencil term: ``coeff * x[i, j, k + dz]``."""

    dz: int
    coeff: Coefficient

    def __post_init__(self) -> None:
        if self.dz == 0:
            raise ValueError(
                "a depth tap with dz=0 is an in-plane tap; put it in the "
                "base pattern"
            )


def compile_3d(
    pattern: StencilPattern,
    depth_taps: Sequence[DepthTap] = (),
    params: Optional[MachineParams] = None,
) -> CompiledStencil:
    """Compile a 3-D stencil: an in-plane pattern plus depth taps.

    With no depth taps this is an ordinary 2-D compilation applied to
    every plane; with depth taps, one fused compilation whose extra-term
    sources are the taps' :func:`depth_alias` names.
    """
    from ..compiler.driver import compile_stencil

    params = params or MachineParams()
    if not depth_taps:
        return compile_stencil(pattern, params)
    seen = set()
    for tap in depth_taps:
        if tap.dz in seen:
            raise ValueError(f"duplicate depth offset {tap.dz}")
        seen.add(tap.dz)
    terms = [
        ExtraTerm(source=depth_alias(tap.dz), coeff=tap.coeff)
        for tap in depth_taps
    ]
    return fuse(pattern, terms, params)


def apply_stencil_3d(
    compiled: CompiledStencil,
    source: CMArray3D,
    coefficients: Optional[Dict[str, CMArray3D]] = None,
    result: Union[CMArray3D, str, None] = None,
    *,
    depth_boundary: BoundaryMode = BoundaryMode.CIRCULAR,
    iterations: int = 1,
    exact: bool = False,
) -> StencilRun:
    """Apply a (possibly depth-fused) stencil to a rank-3 array.

    One engine call whose lead axis is depth: each iteration is one
    halo exchange of the whole volume and one pass over every plane,
    and iteration k+1 reads iteration k's whole 3-D result.  The depth
    taps are the compiled extra terms; they read the planes ``dz``
    away, wrapping or zero-filled at the depth boundary per
    ``depth_boundary``.  Coefficient arrays are rank-3, passed or
    resident under their statement names.

    Returns the run's :class:`~repro.runtime.batch.StencilRun` (its
    ``batch`` is the depth).  Raises
    :class:`~repro.runtime.cm_array.ExecutionSetupError` from
    :func:`~repro.runtime.batch.check_call`, before anything is
    allocated.
    """
    name = check_call(
        (compiled,), source, coefficients, result, door="volume",
        iterations=iterations, block_depth=1, check_finite=False,
    )
    if not isinstance(result, CMArray3D):
        result = CMArray3D(name, source.machine, source.global_shape)
    return run_stencil(
        (compiled,),
        source.name,
        source.stacked,
        result,
        (result.stacked,),
        (result.name,),
        dict(coefficients or {}),
        iterations=iterations,
        exact=exact,
        block_depth=1,
        faults=None,
        resilience=None,
        tenant=None,
        depth_boundary=depth_boundary,
    )


# ----------------------------------------------------------------------
# The 27-point 3-D Laplacian: the batched runtime's headline workload
# ----------------------------------------------------------------------
#
# The compact 27-point Laplacian decomposes by z-plane into three 3x3
# in-plane squares (gallery.laplacian27_below/mid/above):
#
#     R[:, :, k] = L_below(X[:, :, k-1]) + L_mid(X[:, :, k])
#                + L_above(X[:, :, k+1])
#
# which is exactly the batched multi-convolution shape: every slab needs
# every plane filter, so one apply_stencil_batch call with B = depth
# grids and F = 3 filters computes all 3*depth plane convolutions with
# one shared halo exchange per iteration -- against 3*depth exchanges
# for the plane-by-plane loop.


def laplacian27_filters(params: Optional[MachineParams] = None):
    """The three compiled plane filters of the 27-point Laplacian, in
    ``dz`` order (-1, 0, +1)."""
    from ..compiler.driver import compile_stencil
    from ..stencil.gallery import (
        laplacian27_above,
        laplacian27_below,
        laplacian27_mid,
    )

    params = params or MachineParams()
    return tuple(
        compile_stencil(pattern, params)
        for pattern in (
            laplacian27_below(),
            laplacian27_mid(),
            laplacian27_above(),
        )
    )


def apply_laplacian27_reference(
    source: CMArray3D,
    result: Union[CMArray3D, str, None] = None,
    *,
    params: Optional[MachineParams] = None,
) -> CMArray3D:
    """The plane-by-plane 27-point Laplacian (circular in depth).

    Applies each plane filter to each slab with solo ``apply_stencil``
    calls and combines the three terms per output plane with float32
    adds in ``dz`` order.  The oracle the batched variant is checked
    against bit for bit.
    """
    machine = source.machine
    filters = laplacian27_filters(params)
    if result is None:
        result = "LAP27"
    if isinstance(result, str):
        result = CMArray3D(result, machine, source.global_shape)
    depth = source.depth
    terms = np.zeros(
        (depth, 3) + source.plane_shape, dtype=np.float32
    )
    scratch = CMArray("__lap27_ref__", machine, source.plane_shape)
    for k in range(depth):
        for fi, compiled in enumerate(filters):
            apply_stencil(compiled, source.slab(k), None, scratch)
            terms[k, fi] = scratch.to_numpy()
    for k in range(depth):
        acc = terms[(k - 1) % depth, 0].copy()
        np.add(acc, terms[k, 1], out=acc)
        np.add(acc, terms[(k + 1) % depth, 2], out=acc)
        result.slab(k).set(acc)
    return result


def apply_laplacian27(
    source: CMArray3D,
    result: Union[CMArray3D, str, None] = None,
    *,
    params: Optional[MachineParams] = None,
    tenant: Optional[str] = None,
):
    """The batched 27-point Laplacian: one multi-convolution call.

    The volume's depth-lead stack goes straight through a single
    :func:`~repro.runtime.batch.apply_stencil_batch` -- every plane and
    all three plane filters, one shared halo exchange per plane serving
    all three convolutions -- then the three terms are combined on
    whole stacks with the same float32 adds, in the same ``dz`` order,
    as :func:`apply_laplacian27_reference`: the two are bit-identical.

    Returns ``(result, run)`` where ``run`` is the underlying
    :class:`~repro.runtime.batch.StencilRun`; its ``result``, the terms
    batch, is freed from storage once the terms are combined.
    """
    run = apply_stencil_batch(
        laplacian27_filters(params), source, result="__lap27_terms__",
        tenant=tenant,
    )
    if result is None:
        result = "LAP27"
    if isinstance(result, str):
        result = CMArray3D(result, source.machine, source.global_shape)
    terms = run.result.stacked  # (depth, 3, grid_rows, grid_cols, rows, cols)
    planes = np.arange(source.depth)
    out = result.stacked
    np.add(terms[(planes - 1) % source.depth, 0], terms[:, 1], out=out)
    np.add(out, terms[(planes + 1) % source.depth, 2], out=out)
    source.machine.storage.free(run.result.name)
    return result, run
