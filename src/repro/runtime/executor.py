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

import functools
import math
import os
import queue
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

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

#: Each thread's scratch words (:func:`_words`).
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
    _share(functools.partial(_run_blocks, steps, out), _blocks(out.shape))


def _share(work: Callable[[Iterable], None], items: List) -> None:
    """Run ``work`` over ``items`` on up to :data:`WORKERS` threads.

    Each thread calls ``work`` once with an iterator that hands it items
    until none is left.  Threads claim items from one queue, so a helper
    still busy with another call's items leaves its share to the threads
    that are free.  A single item runs inline and never creates the
    pool.
    """
    threads = min(WORKERS, len(items))
    if threads <= 1:
        work(iter(items))
        return
    # One stop mark per thread follows the items; a thread stops at the
    # first mark it takes, so every queue read finds an entry.
    claim = queue.SimpleQueue()
    for item in items + [None] * threads:
        claim.put(item)
    pool = _tap_pool()
    helpers = [
        pool.submit(work, iter(claim.get, None)) for _ in range(threads - 1)
    ]
    try:
        work(iter(claim.get, None))
    finally:
        # A helper that never started has nothing left to claim; one
        # that did must finish before the caller reads what it wrote.
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
    # The FPU saturates silently; overflow to inf is a data property,
    # not an execution error.  Error state is per thread, so every
    # thread enters its own.
    with np.errstate(over="ignore", invalid="ignore"):
        for index in claim:
            target = out[index]
            acc, prod = _block_buffers(target.shape)
            _chain(
                [(_slab(a, index, ndim), _slab(b, index, ndim)) for a, b in steps],
                acc,
                prod,
                target,
            )


def _chain(pairs, acc: np.ndarray, prod: np.ndarray, target: np.ndarray) -> None:
    """The WTL3164 chain over one block: ``0.0 + a0 * b0``, then
    ``+ ai * bi`` in order, each multiply and add rounded to float32.
    The last add lands in ``target`` after every read of the block, so
    a factor may alias ``target`` when ``acc`` does not; ``acc`` may be
    ``target`` itself when no factor does."""
    last = len(pairs) - 1
    for i, (a, b) in enumerate(pairs):
        np.multiply(a, b, out=prod)
        # 0.0 + first product, as from a zeroed accumulator.
        np.add(acc if i else _ZERO, prod, out=target if i == last else acc)


def _slab(factor, index: tuple, ndim: int):
    """``factor``'s part of the block at ``index`` (scalars pass through)."""
    if isinstance(factor, np.ndarray):
        return factor[index[ndim - factor.ndim :]]
    return factor


def _block_buffers(shape: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """This thread's accumulator and product buffers, shaped for a block."""
    n = math.prod(shape)
    words = _words(2 * max(n, BLOCK_ELEMENTS))
    return words[:n].reshape(shape), words[n : 2 * n].reshape(shape)


def _words(n: int) -> np.ndarray:
    """This thread's scratch: at least ``n`` float32 words, grown on
    demand up to :data:`KEPT_WORDS` and reused by every later block or
    band it runs; a larger request gets words of its own, dropped when
    its band is done."""
    words = getattr(_BUFFERS, "words", None)
    if words is None or words.size < n:
        words = np.empty(n, np.float32)
        if n <= KEPT_WORDS:
            _BUFFERS.words = words
    return words


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


# ---------------------------------------------------------------------------
# the band schedule

#: Words one chain call may touch in each operand (640 KiB): the rows
#: a sweep's first sub-iteration computes -- a band's own rows and its
#: ghost rows -- of every leading entry, ``width + 2 * P`` words a row.
#: A multiply's three operands then fit one core's 2 MiB L2, and the
#: call is long enough to outlast the interpreter-lock handoff around it
#: on a helper thread.
CALL_WORDS = 5 << 15

#: The most scratch words a thread keeps between blocks and bands
#: (8 MiB): :func:`band_shape` holds every band of more than one row,
#: coefficient tiles included, within it.
KEPT_WORDS = 1 << 21


def band_shape(
    pad: int, row_words: int, tile_words: int, height: int, iterations: int
) -> Tuple[int, int]:
    """``(bands, depth)``: bands per sweep and iterations per sweep.

    ``row_words`` is one padded row of every leading entry, ``tile_words``
    one row of every tile a band holds.  A band of ``b`` rows keeps its
    first sub-iteration's calls within :data:`CALL_WORDS` and its tiles
    within :data:`KEPT_WORDS` when ``b + 2 (depth - 1) pad`` fits
    ``budget`` rows; as ``depth`` is at most ``iterations`` and keeps the
    ghost rows within half the shortest band, the larger of ``budget - 2
    (iterations - 1) pad`` and about half the budget is tall enough.
    The rows are cut into as few bands as that (one row each when no row
    fits), then up to the same number per worker (:func:`band_bounds`).
    """
    budget = min(CALL_WORDS // row_words, KEPT_WORDS // tile_words - 2 * pad)
    tallest = max(budget - 2 * (iterations - 1) * pad, (budget + 2 * pad) // 2)
    fit = -(-height // max(1, min(budget, tallest)))
    bands = min(height, -(-fit // WORKERS) * WORKERS)
    shortest = height // bands
    depth = min(iterations, max(1, shortest // (2 * pad))) if pad else iterations
    return bands, depth


def band_bounds(bands: int, height: int) -> List[Tuple[int, int]]:
    """``(first row, stop row)`` of each of ``bands`` bands over
    ``height`` global rows: the remainder rows spread one per band."""
    cuts = [height * k // bands for k in range(bands + 1)]
    return list(zip(cuts, cuts[1:]))


def band_schedule(
    patterns: Sequence[StencilPattern],
    source: np.ndarray,
    outs: Sequence[np.ndarray],
    arrays: Dict[str, np.ndarray],
    iterations: int,
) -> None:
    """``iterations`` applications of every pattern to ``source``, each
    pattern's last iterate written into its array of ``outs``: the
    host's schedule for an unguarded fast run, bit-identical to one tap
    kernel pass per iteration.

    Every array is in global row order
    (:func:`~repro.machine.memory.global_view`):
    ``source`` is ``lead + (height, width)`` with any leading axes,
    every array of ``outs`` has its shape, and ``arrays`` maps the ARRAY
    coefficient names the patterns read to theirs (2-d, broadcast across
    the leading axes, or with the same leading axes).  The patterns
    carry no fused extra terms.

    The rows are cut into bands (:func:`band_shape`).  A sweep of
    ``depth`` iterations hands the bands to the tap pool; a band copies
    its rows plus a ``depth * pad`` ghost zone, as plain row slices,
    into thread-local tiles ``(lead..., rows, width + 2 * P)`` with
    ``P`` the widest pad, where a node's east/west halo is its
    neighbour's columns and every tap reads a long row.  It runs the
    sweep's sub-iterations there -- each computes one ``pad`` fewer
    ghost rows on each side, through :func:`tap_steps` and the kernel's
    float32 chain -- and writes its rows back.  A sweep whose input is
    its output reads its ghost rows from a snapshot, taken before the
    sweep starts, of the rows around each band boundary.
    """
    lead = source.shape[:-2]
    height, width = source.shape[-2:]
    pads = [pattern.border_widths().max_width for pattern in patterns]
    wide = width + 2 * max(pads)
    entries = math.prod(lead)
    coefficients = sum(math.prod(array.shape[:-2]) for array in arrays.values())
    bands, depth = band_shape(
        max(pads), entries * wide, (3 * entries + coefficients) * wide,
        height, iterations,
    )
    bounds = band_bounds(bands, height)
    inputs = [source] * len(patterns)
    live = list(range(len(patterns)))
    done = 0
    while done < iterations and live:
        steps = min(depth, iterations - done)
        last = done + steps == iterations
        sweep = _Sweep(
            [patterns[f] for f in live],
            [pads[f] for f in live],
            [inputs[f] for f in live],
            [
                _snapshot(inputs[f], bounds, steps * pads[f])
                if np.may_share_memory(inputs[f], outs[f])
                else None
                for f in live
            ],
            [outs[f] for f in live],
            arrays,
            steps,
            None if last else np.zeros((bands, len(live)), bool),
        )
        _share(functools.partial(_run_bands, sweep), list(enumerate(bounds)))
        if not last:
            # A pattern whose first sub-iteration left every band's rows
            # unchanged is at a fixed point: its slab already holds every
            # later iterate.  NaNs compare unequal.
            live = [f for j, f in enumerate(live) if not sweep.same[:, j].all()]
        inputs = list(outs)
        done += steps


class _Sweep(NamedTuple):
    """One sweep: per pattern its pad, input array, ghost-row snapshot
    (None when the input is not an output) and result array; the
    coefficient arrays; the sweep's iterations; and, unless the sweep is
    the run's last, per band and pattern whether the first sub-iteration
    left the band's rows unchanged."""

    patterns: Sequence[StencilPattern]
    pads: Sequence[int]
    inputs: Sequence[np.ndarray]
    snaps: Sequence[Optional[np.ndarray]]
    outs: Sequence[np.ndarray]
    arrays: Dict[str, np.ndarray]
    steps: int
    same: Optional[np.ndarray]


def _snapshot(array: np.ndarray, bounds, ghost: int) -> np.ndarray:
    """Each band's ghost rows of ``array``: the ``ghost`` rows above it
    and the ``ghost`` rows below it, per band."""
    snap = np.empty(
        (len(bounds),) + array.shape[:-2] + (2 * ghost, array.shape[-1]),
        np.float32,
    )
    for k, (start, stop) in enumerate(bounds):
        _get_rows(array, start - ghost, start, snap[k, ..., :ghost, :])
        _get_rows(array, stop, stop + ghost, snap[k, ..., ghost:, :])
    return snap


def _run_bands(sweep: _Sweep, claim: Iterable[tuple]) -> None:
    """Run the bands ``claim`` hands out, as ``(index, (first row, stop
    row))``."""
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (start, stop) in claim:
            _run_band(sweep, k, start, stop)


def _run_band(sweep: _Sweep, k: int, start: int, stop: int) -> None:
    """Band ``k`` of one sweep, every pattern and leading entry.

    Every tile of the band is ``width + 2 * P`` words wide, ``P`` the
    widest pad, so one coefficient tile serves every pattern.  A
    sub-iteration computes its output rows as one run of words per
    leading entry, pad columns included: a tap's window is then the
    same run shifted by ``dy`` rows and ``dx`` words.  The pad columns'
    words are junk until the column refresh that follows overwrites
    them.
    """
    lead = sweep.inputs[0].shape[:-2]
    height, width = sweep.inputs[0].shape[-2:]
    size, steps, widest = stop - start, sweep.steps, max(sweep.pads)
    wide = width + 2 * widest
    # Coefficient tiles cover the first sub-iteration's output rows of
    # the deepest pattern; every pattern reads a window of them.
    reach = (steps - 1) * widest
    shapes = {
        name: array.shape[:-2] + (size + 2 * reach, wide)
        for name, array in sweep.arrays.items()
    }
    big = math.prod(lead) * (size + 2 * steps * widest) * wide
    words = _words(sum(map(math.prod, shapes.values())) + 3 * big)
    tiles, at = {}, 0
    for name, shape in shapes.items():
        tile = words[at : at + math.prod(shape)].reshape(shape)
        at += tile.size
        tile[..., :widest] = 0.0
        tile[..., widest + width :] = 0.0
        _get_rows(
            sweep.arrays[name], start - reach, stop + reach,
            tile[..., widest : widest + width],
        )
        tiles[name] = _flat(tile)
    for j, (pattern, pad, array, snap, out) in enumerate(
        zip(sweep.patterns, sweep.pads, sweep.inputs, sweep.snaps, sweep.outs)
    ):
        ghost = steps * pad
        shape = lead + (size + 2 * ghost, wide)
        n = math.prod(shape)
        src = words[at : at + n].reshape(shape)
        dst = words[at + n : at + 2 * n].reshape(shape)
        middle = src[..., widest : widest + width]
        if snap is None:
            _get_rows(array, start - ghost, stop + ghost, middle)
        else:
            middle[..., :ghost, :] = snap[k, ..., :ghost, :]
            middle[..., ghost : ghost + size, :] = array[..., start:stop, :]
            middle[..., ghost + size :, :] = snap[k, ..., ghost:, :]
        edges = _Edges(pattern, start - ghost, height, width, widest)
        edges.columns(src, 0, shape[-2])
        edges.rows(src, 0, shape[-2])
        for t in range(steps):
            first, count = (t + 1) * pad, size + 2 * (ghost - (t + 1) * pad)
            # The output run: row ``first``'s first real word to row
            # ``first + count - 1``'s last, as (first word, length).
            run = (first * wide + widest, (count - 1) * wide + width)
            offset = (reach - ghost) * wide + run[0]
            windows = {
                name: tile[..., None, offset : offset + run[1]]
                for name, tile in tiles.items()
            }
            target = _flat(dst)[..., None, run[0] : run[0] + run[1]]
            prod = words[at + 2 * n : at + 2 * n + target.size]
            _chain(
                tap_steps(
                    pattern, _rows_view(src, run, pad), pad, (1, run[1]), windows
                ),
                target,
                prod.reshape(target.shape),
                target,
            )
            edges.columns(dst, first, first + count)
            edges.rows(dst, first, first + count)
            real = slice(widest, widest + width)
            if t == 0 and _unchanged(
                dst[..., first : first + count, real],
                src[..., first : first + count, real],
            ):
                # Every later sub-iteration reads only rows this one left
                # as they were, so it would leave them too: this output
                # is the sweep's last iterate.  (Equal values may still
                # differ in the sign of a zero, which no chain's result
                # depends on; the chain never rounds to -0.0, so this
                # output's bits are the later ones.)
                if sweep.same is not None:
                    sweep.same[k, j] = True
                src = dst
                break
            src, dst = dst, src
        out[..., start:stop, :] = src[
            ..., ghost : ghost + size, widest : widest + width
        ]


def _unchanged(new: np.ndarray, old: np.ndarray) -> bool:
    """Whether ``new`` equals ``old`` (NaNs compare unequal), one row
    first: an iterate still moving costs one row."""
    return np.array_equal(new[..., :1, :], old[..., :1, :]) and np.array_equal(
        new, old
    )


def _flat(tile: np.ndarray) -> np.ndarray:
    """A ``(..., rows, wide)`` tile as one run of words per leading
    entry."""
    return tile.reshape(tile.shape[:-2] + (tile.shape[-2] * tile.shape[-1],))


def _rows_view(tile: np.ndarray, run: Tuple[int, int], pad: int) -> np.ndarray:
    """Overlapping rows of ``tile``'s words for :func:`tap_steps`: row
    ``pad + dy``, columns ``pad + dx`` on, is the output ``run``
    (``(first word, length)``) shifted by ``dy`` tile rows and ``dx``
    words, for every ``|dy|, |dx| <= pad``."""
    flat = _flat(tile)
    wide = tile.shape[-1]
    base = run[0] - pad * wide - pad
    return np.lib.stride_tricks.as_strided(
        flat[..., base:],
        shape=flat.shape[:-1] + (2 * pad + 1, run[1] + 2 * pad),
        strides=flat.strides[:-1] + (wide * flat.itemsize, flat.itemsize),
        writeable=False,
    )


class _Edges:
    """A tile's boundary treatment: wrapped or filled pad columns, and
    the fill value in every row past a FILL edge of the global array."""

    def __init__(self, pattern, top: int, height: int, width: int, pad: int):
        dim_row, dim_col = pattern.plane_dims
        self.row_fills = pattern.boundary[dim_row] is BoundaryMode.FILL
        self.col_fills = pattern.boundary[dim_col] is BoundaryMode.FILL
        self.fill = np.float32(pattern.fill_value)
        self.top, self.height, self.width, self.pad = top, height, width, pad

    def columns(self, tile, first: int, stop: int) -> None:
        """Refresh the pad columns of tile rows ``first:stop``."""
        pad, width = self.pad, self.width
        if not pad:
            return
        rows = tile[..., first:stop, :]
        if self.col_fills:
            rows[..., :pad] = self.fill
            rows[..., width + pad :] = self.fill
        else:
            rows[..., :pad] = rows[..., width : width + pad]
            rows[..., width + pad :] = rows[..., pad : 2 * pad]

    def rows(self, tile, first: int, stop: int) -> None:
        """Fill tile rows ``first:stop`` that lie past a FILL edge."""
        if not self.row_fills:
            return
        above = min(stop, -self.top)
        if first < above:
            tile[..., first:above, :] = self.fill
        below = max(first, self.height - self.top)
        if below < stop:
            tile[..., below:stop, :] = self.fill


def _get_rows(array: np.ndarray, start: int, stop: int, into: np.ndarray) -> None:
    """Copy rows ``start:stop`` of a global-row ``array``, wrapped around
    its height, into ``into`` (``(..., stop - start, width)``)."""
    height = array.shape[-2]
    at = start
    while at < stop:
        first = at % height
        n = min(height - first, stop - at)
        into[..., at - start : at - start + n, :] = array[..., first : first + n, :]
        at += n


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
    guard: FaultGuard,
) -> np.ndarray:
    """Run one guarded temporal block: ``steps`` locally fused
    sub-iterations.

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

    Returns the buffer holding the last iterate (its subgrid at
    ``[deep : deep + rows, deep : deep + cols]``).

    Each sub-iteration's valid output region is parity-sealed after the
    FILL re-application and verified before the next sub-iteration
    reads it -- the read window of sub-iteration ``t + 1`` is exactly
    the sealed region of ``t`` -- and ``guard``'s injector may flip bits
    in the just-sealed region between sub-iterations.  The final region
    is parity- and finiteness-checked before the block returns, so
    corruption injected after the last seal cannot escape.  (An
    unguarded run at depth above 1 takes the band schedule instead.)
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
    sealed = sealed_view = None
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
        if sealed is not None:
            # sealed_view (the previous sub-iteration's valid output
            # region) is exactly the window this sub-iteration reads.
            guard.verify_parity(sealed_view, sealed, f"block sub-iteration {t} input")
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
        sealed_view = dst[region]
        sealed = parity_word(sealed_view)
        # The strike window: the region just sealed, which the next
        # sub-iteration (or the final check) reads.
        guard.inject_scratch([(f"block sub-iteration {t} output", sealed_view)])
        src, dst = dst, src
    # The last seal covers exactly the final subgrid region; verify it so
    # a flip injected after the last sub-iteration (or a NaN produced
    # inside the block) cannot escape the block.
    guard.verify_parity(sealed_view, sealed, "temporal block output")
    guard.verify_finite(src[interior], "temporal block output")
    return src
