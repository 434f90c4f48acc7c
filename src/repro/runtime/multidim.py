"""Multidimensional arrays: the run-time library's outer iteration.

The paper's run-time library "provides the outer loop structure for
strip-mining and for handling multidimensional arrays" (section 1).
This module supplies that outer structure for rank-3 arrays: the first
two dimensions are block-decomposed over the node grid exactly as in
Figure 1, the third dimension is a node-local *depth* axis, and a 3-D
stencil application loops plane by plane, running the full 2-D
machinery (halo exchange, strip mining, compiled plans) on each slab.

Depth-direction taps -- e.g. the out-of-plane neighbors of a 7-point 3-D
Laplacian -- compose with the fusion extension: a tap at depth offset
``dz`` is an extra term whose source is the slab ``dz`` planes away.
The compiled register access patterns bake buffer names, so the runtime
points stable alias names (one per depth offset) at the correct slab
before processing each plane, the software analogue of the sequencer's
run-time base-address parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..compiler.codegen import ExtraTerm
from ..compiler.fusion import FusedStencil, fuse
from ..compiler.plan import CompiledStencil
from ..machine.machine import CM2
from ..machine.params import MachineParams
from ..stencil.offsets import BoundaryMode
from ..stencil.pattern import Coefficient, StencilPattern
from .cm_array import CMArray
from .stencil_op import StencilRun, apply_stencil


def slab_name(name: str, k: int) -> str:
    return f"{name}__k{k}__"


def depth_alias(dz: int) -> str:
    """The stable buffer alias for the slab at depth offset ``dz``."""
    sign = "p" if dz >= 0 else "m"
    return f"__slab_{sign}{abs(dz)}__"


#: Per-node buffer of zeros used when a FILL depth boundary runs off the
#: end of the depth axis.
ZERO_SLAB = "__zero_slab__"


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


class CMArray3D:
    """A rank-3 distributed array: decomposed planes stacked in depth."""

    def __init__(
        self,
        name: str,
        machine: CM2,
        global_shape: Tuple[int, int, int],
    ) -> None:
        rows, cols, depth = global_shape
        if depth < 1:
            raise ValueError(f"depth must be positive, got {depth}")
        self.name = name
        self.machine = machine
        self.global_shape = (rows, cols, depth)
        self.slabs: List[CMArray] = [
            CMArray(slab_name(name, k), machine, (rows, cols))
            for k in range(depth)
        ]

    @property
    def depth(self) -> int:
        return self.global_shape[2]

    @property
    def plane_shape(self) -> Tuple[int, int]:
        return self.global_shape[:2]

    @property
    def subgrid_shape(self) -> Tuple[int, int]:
        return self.slabs[0].subgrid_shape

    @classmethod
    def from_numpy(
        cls, name: str, machine: CM2, array: np.ndarray
    ) -> "CMArray3D":
        if array.ndim != 3:
            raise ValueError(f"expected a rank-3 array, got rank {array.ndim}")
        out = cls(name, machine, tuple(array.shape))
        out.set(array)
        return out

    def set(self, array: np.ndarray) -> None:
        if tuple(array.shape) != self.global_shape:
            raise ValueError(
                f"array shape {array.shape} != {self.global_shape}"
            )
        for k, slab in enumerate(self.slabs):
            slab.set(array[:, :, k])

    def to_numpy(self) -> np.ndarray:
        rows, cols, depth = self.global_shape
        out = np.zeros((rows, cols, depth), dtype=np.float32)
        for k, slab in enumerate(self.slabs):
            out[:, :, k] = slab.to_numpy()
        return out

    def slab(self, k: int) -> CMArray:
        return self.slabs[k]

    def like(self, name: str) -> "CMArray3D":
        return CMArray3D(name, self.machine, self.global_shape)


@dataclass
class Stencil3DRun:
    """Aggregate accounting for one rank-3 stencil application."""

    result: CMArray3D
    params: MachineParams
    num_nodes: int
    compute_cycles: int = 0
    comm_cycles: int = 0
    host_seconds: float = 0.0
    useful_flops: int = 0

    @property
    def elapsed_seconds(self) -> float:
        return (
            self.params.seconds(self.compute_cycles + self.comm_cycles)
            + self.host_seconds
        )

    @property
    def mflops(self) -> float:
        return self.useful_flops / self.elapsed_seconds / 1e6

    @property
    def gflops(self) -> float:
        return self.mflops / 1e3


def compile_3d(
    pattern: StencilPattern,
    depth_taps: Sequence[DepthTap] = (),
    params: Optional[MachineParams] = None,
) -> Union[CompiledStencil, FusedStencil]:
    """Compile a 3-D stencil: an in-plane pattern plus depth taps.

    With no depth taps this is an ordinary 2-D compilation applied slab
    by slab; with depth taps, one fused compilation whose extra-term
    sources are the depth-offset aliases.
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
    compiled: Union[CompiledStencil, FusedStencil],
    source: CMArray3D,
    coefficients: Optional[Dict[str, CMArray3D]] = None,
    result: Union[CMArray3D, str, None] = None,
    *,
    depth_taps: Sequence[DepthTap] = (),
    depth_boundary: BoundaryMode = BoundaryMode.CIRCULAR,
    iterations: int = 1,
    exact: bool = False,
) -> Stencil3DRun:
    """Apply a (possibly depth-fused) stencil to a rank-3 array.

    The outer loop runs plane by plane; before each plane the depth
    aliases are pointed at the neighboring slabs (wrapping or
    zero-filled at the depth boundary per ``depth_boundary``).

    Coefficient arrays are rank-3: each plane streams its own slab.
    """
    machine = source.machine
    params = compiled.params
    coefficients = coefficients or {}
    if result is None:
        result = compiled.pattern.result
    if isinstance(result, str):
        result = CMArray3D(result, machine, source.global_shape)
    depth = source.depth
    _ensure_zero_slab(machine, source.subgrid_shape)

    run = Stencil3DRun(
        result=result, params=params, num_nodes=machine.num_nodes
    )
    for k in range(depth):
        _point_depth_aliases(
            machine, source, k, depth_taps, depth_boundary
        )
        # The compiled patterns stream coefficients by statement name
        # ("C1", ...); apply_stencil's scoped bindings point those names
        # at plane k's slabs, as the real sequencer would take fresh
        # base addresses.
        slab_coeffs = {
            name: arrays.slab(k) for name, arrays in coefficients.items()
        }
        slab_run: StencilRun = apply_stencil(
            compiled,
            source.slab(k),
            slab_coeffs,
            result.slab(k),
            iterations=1,
            exact=exact,
        )
        run.compute_cycles += slab_run.compute_cycles
        run.comm_cycles += slab_run.comm.cycles
        run.host_seconds += slab_run.host_seconds_per_iteration
        run.useful_flops += (
            slab_run.useful_flops_per_node_per_iteration * machine.num_nodes
        )
    if iterations > 1:
        run.compute_cycles *= iterations
        run.comm_cycles *= iterations
        run.host_seconds *= iterations
        run.useful_flops *= iterations
    return run


def _ensure_zero_slab(machine: CM2, subgrid_shape: Tuple[int, int]) -> None:
    stack = machine.stacked(ZERO_SLAB)
    if stack is None or stack.shape[2:] != subgrid_shape:
        machine.alloc_stacked(ZERO_SLAB, subgrid_shape)


def _point_depth_aliases(
    machine: CM2,
    source: CMArray3D,
    k: int,
    depth_taps: Sequence[DepthTap],
    depth_boundary: BoundaryMode,
) -> None:
    depth = source.depth
    for tap in depth_taps:
        target_k = k + tap.dz
        if depth_boundary is BoundaryMode.CIRCULAR:
            target = slab_name(source.name, target_k % depth)
        elif 0 <= target_k < depth:
            target = slab_name(source.name, target_k)
        else:
            target = ZERO_SLAB
        machine.alias_stacked(depth_alias(tap.dz), target)


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

    All ``depth`` slabs and all three plane filters go through a single
    :func:`~repro.runtime.batch.apply_stencil_batch` (one shared halo
    exchange serves every plane convolution), then each output plane
    combines its three terms with the same float32 adds, in the same
    ``dz`` order, as :func:`apply_laplacian27_reference` -- the two are
    bit-identical.

    Returns ``(result, run)`` where ``run`` is the underlying
    :class:`~repro.runtime.batch.StencilRun`.
    """
    from .batch import CMBatch, apply_stencil_batch

    machine = source.machine
    filters = laplacian27_filters(params)
    if result is None:
        result = "LAP27"
    if isinstance(result, str):
        result = CMArray3D(result, machine, source.global_shape)
    depth = source.depth
    slabs = np.moveaxis(source.to_numpy(), 2, 0)  # (depth, rows, cols)
    batch_source = CMBatch.from_numpy(
        "__lap27_slabs__", machine, np.ascontiguousarray(slabs)
    )
    run = apply_stencil_batch(
        filters, batch_source, result="__lap27_terms__", tenant=tenant
    )
    terms = run.result.to_numpy()  # (depth, 3, rows, cols)
    for k in range(depth):
        acc = terms[(k - 1) % depth, 0].copy()
        np.add(acc, terms[k, 1], out=acc)
        np.add(acc, terms[(k + 1) % depth, 2], out=acc)
        result.slab(k).set(acc)
    return result, run
