"""Execution of compiled stencils on whole-machine stacks.

Two execution modes with identical semantics:

* **exact** -- one pass's half-strips run through the cycle-stepped
  sequencer + WTL3164 model once for the whole machine, every node and
  batch entry a lane of it: real register contents, ring-buffer
  rotation, writeback timing, and exact cycle counts.  Used by the
  correctness tests (and usable anywhere, just slower).
* **fast** -- numerics computed vectorized across the whole node grid
  in the *same accumulation order* the schedules use (so results are
  bit-identical in float32), with cycles from the closed-form cost model
  that the exact mode validates.  Used by the benchmarks.
"""

from __future__ import annotations

import math
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..compiler.plan import CompiledStencil
from ..machine.fpu import Wtl3164
from ..machine.machine import CM2
from ..machine.memory import NodeMemory, parity_word
from ..machine.node import Node
from ..machine.sequencer import Sequencer
from ..stencil.offsets import BoundaryMode
from ..stencil.pattern import CoeffKind, StencilPattern
from ..verify import lockdep
from .cm_array import ExecutionSetupError, stack_of  # noqa: F401 (re-exported)
from .faults import FaultGuard
from .halo import halo_buffer_name
from .strips import StripSchedule


def machine_execute_exact(
    compiled: CompiledStencil,
    schedule: StripSchedule,
    stacks: Dict[str, np.ndarray],
    *,
    source_buffer: str,
    result_buffer: str,
    halo: int,
) -> int:
    """One pass through the cycle-stepped datapath: one sequencer and
    one WTL3164 for every node and batch entry.

    ``stacks`` maps each name the pass streams -- the padded source
    ``source_buffer``, the result slab ``result_buffer``, coefficient
    and fused extra-source stacks by statement name -- to its
    whole-machine stack, held by reference.  Every memory operand is
    ``stack[..., row, col]``, one lane per node and batch entry (4-d
    stacks broadcast across the batch axes), and constant pages are
    scalars.  Returns the exact cycle count: the machine is synchronous
    SIMD, so one instruction stream's count is every node's.
    """
    params = compiled.params
    memory = NodeMemory()
    for name, stack in stacks.items():
        memory.hold(name, stack)
    memory.ensure_constant_pages(compiled.scalar_coefficient_values())
    allocation = next(iter(compiled.plans.values())).allocation
    fpu = Wtl3164(
        params,
        memory,
        zero_reg=allocation.zero_reg,
        unit_reg=allocation.unit_reg,
    )
    sequencer = Sequencer(
        params,
        memory,
        source_buffer=source_buffer,
        result_buffer=result_buffer,
        halo=halo,
    )
    for strip in schedule.strips:
        fpu.stall(params.strip_setup_cycles, "strip-setup")
        for job in strip.half_strips:
            if job.lines > 0:
                sequencer.run_half_strip(strip.plan, job, fpu)
    fpu.drain()
    return fpu.stats.cycles


# ---------------------------------------------------------------------------
# the tap kernel

#: Elements per kernel block: 64K float32 words, 256 KiB per block
#: buffer.  A block's accumulator and product buffers, its source window
#: and the current tap's coefficient slice stay in one core's L2 for the
#: whole tap chain, where a whole-stack pass per tap streams every
#: operand through memory once per tap.
BLOCK_ELEMENTS = 1 << 16


def _affinity_workers() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity masks on this platform
        return os.cpu_count() or 1


#: Threads that share one kernel call's blocks, the calling thread
#: included: the CPUs this process may run on.
WORKERS = _affinity_workers()

_ONE = np.float32(1.0)
_ZERO = np.float32(0.0)

_TAP_POOL_LOCK = lockdep.lock("_TAP_POOL_LOCK")
#: The ``WORKERS - 1`` helper threads, created by the first call that
#: has more than one block.
_TAP_POOL = None  # guarded-by: _TAP_POOL_LOCK

#: Each thread's ``(acc, prod)`` block buffers, grown on demand.
_BUFFERS = threading.local()


def _tap_pool() -> ThreadPoolExecutor:
    global _TAP_POOL
    with _TAP_POOL_LOCK:
        if _TAP_POOL is None:
            _TAP_POOL = ThreadPoolExecutor(
                max_workers=WORKERS - 1, thread_name_prefix="tap-kernel"
            )
        return _TAP_POOL


def _forget_tap_pool() -> None:
    """A forked child inherits the pool object but none of its threads,
    and possibly a lock some other parent thread held: start over."""
    global _TAP_POOL, _TAP_POOL_LOCK
    _TAP_POOL_LOCK = lockdep.lock("_TAP_POOL_LOCK")
    with _TAP_POOL_LOCK:
        _TAP_POOL = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_tap_pool)


def tap_steps(
    pattern: StencilPattern,
    padded: np.ndarray,
    origin: int,
    shape: Tuple[int, int],
    arrays: Dict[str, np.ndarray],
) -> List[Tuple[object, object]]:
    """The kernel's factor pairs for ``pattern``, in statement order.

    Taps read ``shape``-sized windows of ``padded`` whose unshifted
    window starts at ``origin`` on both subgrid axes; fused extra terms
    follow the taps.  ``arrays`` maps coefficient and extra-source names
    to arrays already aligned with the output.  Each pair keeps the
    operand order of the WTL3164 chain: coefficient times datum, and
    ``1.0`` times the coefficient of a constant term.  Scalar and unit
    coefficients stay float32 scalars; numpy's scalar-times-array
    float32 multiply rounds exactly like the per-node full-page one.
    """
    rows, cols = shape
    steps: List[Tuple[object, object]] = []
    for tap in pattern.taps:
        coeff = _factor(tap.coeff, arrays)
        if tap.is_constant_term:
            steps.append((_ONE, coeff))
        else:
            row, col = origin + tap.dy, origin + tap.dx
            steps.append(
                (coeff, padded[..., row : row + rows, col : col + cols])
            )
    for term in pattern.extra_terms:
        steps.append((_factor(term.coeff, arrays), arrays[term.source]))
    return steps


def tap_kernel(steps: Sequence[Tuple[object, object]], out: np.ndarray) -> None:
    """Write ``sum(a * b for a, b in steps)`` into ``out``, block by block.

    Every element gets the chained multiply-add of the WTL3164 model --
    ``0.0 + a0 * b0``, then ``+ a1 * b1`` and so on, in step order, with
    float32 rounding after every multiply and every add -- so the result
    is bit-identical to one whole-stack pass per step.  Only the loop
    order changes: every step runs on one block (see :func:`_blocks`)
    before the next block starts, so the block's running sum never
    leaves cache, and the blocks are shared among :data:`WORKERS`
    threads.  A call with a single block runs inline and never creates
    the pool.

    ``out`` has the node-row axis at ``-4``, with any leading axes ahead
    of it.  An array factor has ``out``'s shape or a trailing part of it
    (numpy broadcasting).  A block reads exactly its own index range of
    every factor shaped like ``out`` and reads it before writing its
    range of ``out``, so such a factor may alias ``out`` (the in-place
    fused extra term); blocks never share rows.
    """
    blocks = _blocks(out.shape)
    threads = min(WORKERS, len(blocks))
    if threads <= 1:
        _run_blocks(steps, out, blocks)
        return
    # Threads claim blocks from one queue, so a helper still busy with
    # another call's blocks leaves its share to the threads that are
    # free.  One stop mark per thread follows the blocks; a thread stops
    # at the first mark it takes, so every queue read finds an entry.
    claim = queue.SimpleQueue()
    for index in blocks + [None] * threads:
        claim.put(index)
    pool = _tap_pool()
    helpers = [
        pool.submit(_run_blocks, steps, out, iter(claim.get, None))
        for _ in range(threads - 1)
    ]
    try:
        _run_blocks(steps, out, iter(claim.get, None))
    finally:
        # A helper that never started has nothing left to claim; one
        # that did must finish before ``out`` is handed back.
        started = [future for future in helpers if not future.cancel()]
        wait(started)
    for future in started:
        future.result()


def _blocks(shape: Tuple[int, ...]) -> List[tuple]:
    """Index tuples splitting an array of ``shape`` into kernel blocks.

    The split axis is the node-row axis (``-4``), or the outermost
    leading axis one of whose indices still fits in
    :data:`BLOCK_ELEMENTS`.  A block fixes every axis ahead of the split
    axis and takes a range of indices along it: a run of node rows of
    one batch entry and filter, or a run of whole batch entries when
    each is small.
    """
    axis = len(shape) - 4
    size = math.prod(shape[axis + 1 :])
    while axis > 0 and size * shape[axis] <= BLOCK_ELEMENTS:
        size *= shape[axis]
        axis -= 1
    step = max(1, BLOCK_ELEMENTS // size)
    return [
        prefix + (slice(start, start + step),)
        for prefix in np.ndindex(*shape[:axis])
        for start in range(0, shape[axis], step)
    ]


def _run_blocks(steps, out: np.ndarray, claim: Iterable[tuple]) -> None:
    """Run the blocks ``claim`` hands out."""
    ndim = out.ndim
    last = len(steps) - 1
    # The FPU saturates silently; overflow to inf is a data property,
    # not an execution error.  Error state is per thread, so every
    # thread enters its own.
    with np.errstate(over="ignore", invalid="ignore"):
        for index in claim:
            target = out[index]
            acc, prod = _block_buffers(target.shape)
            for i, (a, b) in enumerate(steps):
                np.multiply(
                    _slab(a, index, ndim), _slab(b, index, ndim), out=prod
                )
                # 0.0 + first product, as from a zeroed accumulator; the
                # last add lands in ``out`` after every read of the block.
                np.add(
                    acc if i else _ZERO,
                    prod,
                    out=target if i == last else acc,
                )


def _slab(factor, index: tuple, ndim: int):
    """``factor``'s part of the block at ``index`` (scalars pass through)."""
    if isinstance(factor, np.ndarray):
        return factor[index[ndim - factor.ndim :]]
    return factor


def _block_buffers(shape: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """This thread's accumulator and product buffers, shaped for a block."""
    n = math.prod(shape)
    pair = getattr(_BUFFERS, "pair", None)
    if pair is None or pair[0].size < n:
        size = max(n, BLOCK_ELEMENTS)
        pair = (np.empty(size, np.float32), np.empty(size, np.float32))
        _BUFFERS.pair = pair
    return pair[0][:n].reshape(shape), pair[1][:n].reshape(shape)


def kernel_array_names(pattern: StencilPattern) -> Tuple[str, ...]:
    """Coefficient and fused extra-source arrays the taps read, in
    statement order."""
    names = [
        tap.coeff.name
        for tap in pattern.taps
        if tap.coeff.kind is CoeffKind.ARRAY
    ]
    for term in pattern.extra_terms:
        names.append(term.source)
        if term.coeff.kind is CoeffKind.ARRAY:
            names.append(term.coeff.name)
    return tuple(dict.fromkeys(names))


def _factor(coeff, arrays: Dict[str, np.ndarray]):
    """A coefficient as a kernel factor: its array or a float32 scalar."""
    if coeff.kind is CoeffKind.ARRAY:
        return arrays[coeff.name]
    if coeff.kind is CoeffKind.SCALAR:
        return np.float32(coeff.value)
    return _ONE


def values_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """``np.array_equal`` of two stacks, one node row at a time.

    Returns at the first node row (axis ``-4``) that differs, so the
    common not-yet-converged case costs one row, not the whole stack.
    NaNs compare unequal, so a diverging run never reads as converged.
    """
    return all(
        np.array_equal(a[..., row, :, :, :], b[..., row, :, :, :])
        for row in range(a.shape[-4])
    )


# ---------------------------------------------------------------------------
# the tap loops, as kernel callers


def node_execute_fast(
    pattern: StencilPattern,
    node: Node,
    *,
    source_name: str,
    result_name: str,
    halo: int,
) -> None:
    """Compute one node's subgrid with the tap kernel, in schedule order.

    Accumulates taps in statement order with float32 rounding after every
    multiply and every add -- exactly the chained multiply-add semantics
    of the WTL3164 model, so the result is bit-identical to exact mode.
    The node's buffers enter the kernel as a 1x1 node grid.
    """
    memory = node.memory
    arrays = {
        name: memory.buffer(name)[None, None]
        for name in kernel_array_names(pattern)
    }
    padded = memory.buffer(halo_buffer_name(source_name))[None, None]
    result = memory.buffer(result_name)
    tap_kernel(
        tap_steps(pattern, padded, halo, result.shape, arrays),
        result[None, None],
    )


def machine_execute_fast(
    pattern: StencilPattern,
    machine: CM2,
    *,
    source_name: str,
    result_name: str,
    halo: int,
    guard: Optional[FaultGuard] = None,
) -> None:
    """Compute every node's subgrid in one machine-wide kernel call.

    The taps read windows of the stacked padded source, and the
    coefficient and extra-source stacks, across the whole node grid.
    Because float32 arithmetic is elementwise deterministic, the result
    is bit-identical to one node at a time (and therefore to exact
    mode).  Raises :class:`ExecutionSetupError` naming any buffer the
    machine storage does not hold, having written nothing.
    """
    halo_name = halo_buffer_name(source_name)
    stacks = {
        name: stack_of(machine, name)
        for name in {halo_name, result_name, *kernel_array_names(pattern)}
    }
    result = stacks[result_name]
    tap_kernel(
        tap_steps(pattern, stacks[halo_name], halo, result.shape[2:], stacks),
        result,
    )
    if guard is not None:
        guard.inject_poison(result)
        guard.verify_finite(result, f"fast executor result {result_name!r}")


def machine_execute_fast_stack(
    pattern: StencilPattern,
    *,
    padded: np.ndarray,
    coeff_stacks: Dict[str, np.ndarray],
    halo: int,
    out: np.ndarray,
) -> None:
    """The tap kernel on raw stacks: the engine's unblocked pass.

    ``padded`` carries any leading batch axes ahead of the node grid
    (subgrid axes at ``-2``/``-1``), and ``out`` shares them with
    unpadded subgrid extents; ``coeff_stacks`` maps coefficient and
    fused extra-source names to 4-d stacks, which broadcast across the
    leading axes, so one kernel call serves the whole batch and every
    element's float32 chain matches the per-grid run bit for bit.
    """
    tap_kernel(tap_steps(pattern, padded, halo, out.shape[-2:], coeff_stacks), out)


def machine_execute_blocked(
    pattern: StencilPattern,
    *,
    ping: np.ndarray,
    pong: np.ndarray,
    deep_coeffs: Dict[str, np.ndarray],
    subgrid_shape,
    pad: int,
    steps: int,
    guard: Optional[FaultGuard] = None,
):
    """Run one temporal block: ``steps`` locally fused sub-iterations.

    ``ping`` holds the block input with a valid ``steps * pad``-deep
    halo (filled by a composed-band exchange, :mod:`repro.runtime.halo`);
    ``pong`` is its ping-pong partner, and ``deep_coeffs`` the
    deep-padded coefficient stacks.  Sub-iteration ``t`` applies the
    stencil over the whole still-valid region -- the subgrid plus a
    ``(steps - 1 - t) * pad``-deep ghost ring -- with one
    :func:`tap_kernel` call, exactly :func:`machine_execute_fast` over
    an enlarged subgrid.  The ghost ring reproduces, bit for bit, what
    the neighbors compute in their own interiors (same data via the deep
    exchange, same coefficients via ``deep_coeffs``, same rounding
    chain), so consuming it instead of re-exchanging changes no result
    bits.  FILL boundary semantics are re-applied to the out-of-bounds
    bands after every sub-iteration, exactly the state a fresh exchange
    would restore.

    Returns ``(final, fixed)``: the buffer holding the last iterate
    (its subgrid at ``[deep : deep + rows, deep : deep + cols]``) and
    whether a machine-wide fixed point was detected after the first
    sub-iteration (in which case ``final`` already equals every later
    iterate and the caller may stop computing).

    Under ``guard`` (chaos runs), each sub-iteration's valid output
    region is parity-sealed after the FILL re-application and verified
    before the next sub-iteration reads it -- the read window of
    sub-iteration ``t + 1`` is exactly the sealed region of ``t`` -- and
    the injector may flip bits in the just-sealed region between
    sub-iterations.  The final region is parity- and finiteness-checked
    before the block returns, so corruption injected after the last
    seal cannot escape.
    """
    rows, cols = subgrid_shape
    deep = steps * pad
    interior = (..., slice(deep, deep + rows), slice(deep, deep + cols))
    dim_row, dim_col = pattern.plane_dims
    row_fills = (
        pattern.boundary.get(dim_row, BoundaryMode.CIRCULAR)
        is BoundaryMode.FILL
    )
    col_fills = (
        pattern.boundary.get(dim_col, BoundaryMode.CIRCULAR)
        is BoundaryMode.FILL
    )
    fill = np.float32(pattern.fill_value)

    src, dst = ping, pong
    sealed: Optional[int] = None
    sealed_view: Optional[np.ndarray] = None
    for t in range(steps):
        ghost = (steps - 1 - t) * pad
        out_rows = rows + 2 * ghost
        out_cols = cols + 2 * ghost
        base = deep - ghost
        region = (
            ...,
            slice(base, base + out_rows),
            slice(base, base + out_cols),
        )
        if guard is not None and sealed is not None:
            # sealed_view (the previous sub-iteration's valid output
            # region) is exactly the window this sub-iteration reads.
            guard.verify_parity(
                sealed_view,
                sealed,
                f"block sub-iteration {t} input",
            )
        # Leading batch axes (if any) ride along: the subgrid axes sit
        # at -2/-1 and 4-d coefficient stacks broadcast across the
        # batch, so the per-element float32 chain is unchanged.
        coeffs = {name: buf[region] for name, buf in deep_coeffs.items()}
        tap_kernel(
            tap_steps(pattern, src, base, (out_rows, out_cols), coeffs),
            dst[region],
        )
        if row_fills:
            dst[..., 0, :, :deep, :] = fill
            dst[..., -1, :, deep + rows :, :] = fill
        if col_fills:
            dst[..., :, 0, :, :deep] = fill
            dst[..., :, -1, :, deep + cols :] = fill
        if guard is not None:
            sealed_view = dst[region]
            sealed = parity_word(sealed_view)
        if t == 0 and steps > 1:
            # The subgrids alone tile the global array, so
            # machine-wide interior equality means a true fixed
            # point: every later iterate reproduces this one.
            if values_equal(dst[interior], src[interior]):
                if guard is not None:
                    guard.verify_finite(
                        dst[interior], "temporal block fixed-point output"
                    )
                return dst, True
        if guard is not None:
            # The strike window: the region just sealed, which the next
            # sub-iteration (or the final check) reads.
            guard.inject_scratch(
                [(f"block sub-iteration {t} output", sealed_view)]
            )
        src, dst = dst, src
    if guard is not None:
        # The last seal covers exactly the final subgrid region; verify
        # it so a flip injected after the last sub-iteration (or a NaN
        # produced inside the block) cannot escape the block.
        guard.verify_parity(sealed_view, sealed, "temporal block output")
        guard.verify_finite(src[interior], "temporal block output")
    return src, False
