"""Temporary-storage allocation and the four-neighbor halo exchange.

Interprocessor communication for an entire stencil computation happens
up front, all at once (paper section 5.1):

1. temporary storage is allocated around each subgrid, padded on *all
   four sides* by the largest of the four border widths -- the
   four-neighbor exchange primitive makes the extra data free, and "in
   practice most stencils have fourfold symmetry anyway";
2. data is exchanged with all four grid neighbors simultaneously (the
   new node-grid communication primitive);
3. corner data is exchanged for patterns that reach diagonally; the test
   for skipping this step "is very easy and quick and does save a
   noticeable amount of time for smaller arrays".

Boundary treatment: CSHIFT dimensions wrap (the node grid is a torus);
EOSHIFT dimensions fill out-of-bounds halo regions with the statement's
boundary value at the global array edges (interior node boundaries still
receive neighbor data).

Every public exchange -- the shallow one, the temporal-blocking deep
one, and the group ones the engine shares among filters -- is a thin
caller of one primitive, :func:`_exchange`: it fills a padded
stack at a given width in one of three message shapes (edges; edges
plus the corner step; composed bands) and, under a fault guard, owns
the hard-fault window, dead-link garbling, per-message parity checks,
route localization, retry and backoff.

Axis convention: every stack-level helper in this module indexes the
node-grid axes at ``-4``/``-3`` and the subgrid axes at ``-2``/``-1``,
so the same data movement serves the classic 4-d
``(grid_rows, grid_cols, rows, cols)`` stacks and the batched
``(batch, ..., grid_rows, grid_cols, rows, cols)`` stacks -- one
machine pass exchanges the halos of every leading-axis copy at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from ..machine.machine import CM2
from ..machine.memory import parity_word
from ..machine.params import MachineParams
from ..stencil.offsets import BoundaryMode
from ..stencil.pattern import StencilPattern
from .cm_array import CMArray, intact_stack
from .faults import FaultGuard, RetryExhaustedError


def halo_buffer_name(array_name: str) -> str:
    """Name of the temporary padded buffer for a source array."""
    return f"{array_name}__halo__"


@dataclass(frozen=True)
class CommStats:
    """Cost accounting for one halo exchange (per node, per call)."""

    pad: int
    cycles: int
    edge_elements: int
    corner_elements: int
    corner_step_skipped: bool
    temp_words: int

    @property
    def total_elements(self) -> int:
        return self.edge_elements + self.corner_elements


def exchange_cost(
    pattern: StencilPattern,
    subgrid_shape: Tuple[int, int],
    params: MachineParams,
) -> CommStats:
    """The communication cost model, without moving any data.

    The four-neighbor exchange moves ``pad`` rows/columns along every
    edge simultaneously, so its time is proportional to the *longer*
    subgrid side; the corner step (when needed) moves four ``pad x pad``
    blocks.
    """
    pad = pattern.border_widths().max_width
    rows, cols = subgrid_shape
    skipped = not pattern.needs_corner_exchange()
    if pad == 0:
        return CommStats(
            pad=0,
            cycles=0,
            edge_elements=0,
            corner_elements=0,
            corner_step_skipped=True,
            temp_words=rows * cols,
        )
    cycles = params.comm_startup_cycles + int(
        params.comm_cycles_per_element * pad * max(rows, cols)
    )
    corner_elements = 0
    if not skipped:
        cycles += params.corner_exchange_startup_cycles + int(
            params.comm_cycles_per_element * pad * pad
        )
        corner_elements = 4 * pad * pad
    return CommStats(
        pad=pad,
        cycles=cycles,
        edge_elements=2 * pad * (rows + cols),
        corner_elements=corner_elements,
        corner_step_skipped=skipped,
        temp_words=(rows + 2 * pad) * (cols + 2 * pad),
    )


def deep_exchange_cost(
    pattern: StencilPattern,
    subgrid_shape: Tuple[int, int],
    params: MachineParams,
    depth: int,
) -> CommStats:
    """The cost of one deep-halo exchange for temporal block depth
    ``depth``: a ``depth * pad``-wide halo moved in one four-neighbor
    exchange, amortized over ``depth`` locally fused iterations.

    The corner step cannot be skipped for ``depth >= 2`` even when the
    pattern has no diagonal reach: iterating the stencil inside the halo
    composes row and column shifts, so the fused footprint always grows
    diagonally (a cross iterated twice is a diamond).
    """
    if depth < 1:
        raise ValueError("block depth must be positive")
    pad = pattern.border_widths().max_width
    if pad == 0 or depth == 1:
        return exchange_cost(pattern, subgrid_shape, params)
    return deep_width_cost(subgrid_shape, params, depth * pad)


def deep_width_cost(
    subgrid_shape: Tuple[int, int],
    params: MachineParams,
    deep: int,
) -> CommStats:
    """The cost of one composed-corner exchange at an explicit halo
    width.  :func:`deep_exchange_cost` prices ``depth * pad``; batched
    blocked runs share one exchange at the *largest* of their filters'
    deep widths, which need not be a multiple of any single pad."""
    rows, cols = subgrid_shape
    if deep == 0:
        return CommStats(
            pad=0,
            cycles=0,
            edge_elements=0,
            corner_elements=0,
            corner_step_skipped=True,
            temp_words=rows * cols,
        )
    cycles = (
        params.comm_startup_cycles
        + int(params.comm_cycles_per_element * deep * max(rows, cols))
        + params.corner_exchange_startup_cycles
        + int(params.comm_cycles_per_element * deep * deep)
    )
    return CommStats(
        pad=deep,
        cycles=cycles,
        edge_elements=2 * deep * (rows + cols),
        corner_elements=4 * deep * deep,
        corner_step_skipped=False,
        temp_words=(rows + 2 * deep) * (cols + 2 * deep),
    )


def legacy_exchange_cost(
    pattern: StencilPattern,
    subgrid_shape: Tuple[int, int],
    params: MachineParams,
) -> CommStats:
    """The *previous* CM-2 grid primitive's cost (paper section 4.1).

    "Previous CM-2 grid primitives were designed to organize the
    bit-serial processors into a grid and to allow every processor in
    parallel to pass a single datum to a single neighbor, all in the
    same direction (West, say)."  Filling a width-``pad`` halo that way
    takes one whole-direction transfer per row/column of halo per
    direction -- ``4 * pad`` sequential primitive calls, each moving one
    element per processor and paying its own startup -- where the new
    node-grid primitive exchanges everything with all four neighbors at
    once.
    """
    pad = pattern.border_widths().max_width
    rows, cols = subgrid_shape
    skipped = not pattern.needs_corner_exchange()
    if pad == 0:
        return exchange_cost(pattern, subgrid_shape, params)
    cycles = 0
    for extent, directions in ((cols, 2), (rows, 2)):
        # One call per halo row/column per direction; each call shifts
        # one element across every processor boundary on the path, so
        # its transfer time covers the full edge length.
        cycles += directions * pad * (
            params.comm_startup_cycles
            + int(params.comm_cycles_per_element * extent)
        )
    corner_elements = 0
    if not skipped:
        # Corners arrive via composed row+column shifts: pad extra calls
        # per diagonal pair.
        cycles += 2 * pad * (
            params.corner_exchange_startup_cycles
            + int(params.comm_cycles_per_element * pad)
        )
        corner_elements = 4 * pad * pad
    return CommStats(
        pad=pad,
        cycles=cycles,
        edge_elements=2 * pad * (rows + cols),
        corner_elements=corner_elements,
        corner_step_skipped=skipped,
        temp_words=(rows + 2 * pad) * (cols + 2 * pad),
    )


def exchange_halo(
    source: CMArray,
    pattern: StencilPattern,
    params: MachineParams,
    *,
    into: Optional[str] = None,
    guard: Optional[FaultGuard] = None,
) -> CommStats:
    """Build every node's padded source buffer by neighbor exchange.

    Allocates (or refreshes) the ``<name>__halo__`` stack and fills
    every node's interior from its own subgrid and its halo from the
    four edge neighbors plus, when the pattern reaches diagonally, the
    four corner neighbors.

    Args:
        source: the distributed array whose data is exchanged.
        pattern: determines the pad width, boundary modes, and whether
            the corner step runs.
        params: the cost model's machine parameters.
        into: name of the padded destination buffer; defaults to
            ``halo_buffer_name(source.name)``.  Iterated runs pass the
            previous iteration's *result* array as ``source`` with
            ``into`` still naming the original source's halo buffer, so
            the compiled plans keep reading the same buffer name.
        guard: resilience guard for chaos runs (see :func:`_exchange`).

    Raises :class:`~repro.runtime.cm_array.ExecutionSetupError` when a
    node's ``source`` buffer is detached from its machine-wide stack.
    Returns the per-node cost statistics.
    """
    machine = source.machine
    name = into if into is not None else halo_buffer_name(source.name)
    stats = exchange_cost(pattern, source.subgrid_shape, params)
    rows, cols = source.subgrid_shape
    shape = (rows + 2 * stats.pad, cols + 2 * stats.pad)

    def destination() -> np.ndarray:
        padded = machine.stacked(name)
        if padded is None or padded.shape[2:] != shape:
            padded = machine.alloc_stacked(name, shape)
        return padded

    return _exchange(
        intact_stack(machine, source.name),
        destination,
        pattern,
        source.subgrid_shape,
        params,
        stats,
        guard=guard,
        site=f"exchange into {name!r}",
    )


def exchange_halo_deep(
    source_stack: np.ndarray,
    padded: np.ndarray,
    pattern: StencilPattern,
    subgrid_shape: Tuple[int, int],
    params: MachineParams,
    depth: int,
    *,
    copies: int = 1,
    guard: Optional[FaultGuard] = None,
) -> CommStats:
    """Fill a ``depth * pad``-deep padded stack by neighbor exchange.

    The exchange behind temporal blocking: ``padded`` is a preallocated
    destination (typically one of the ping-pong pair) with
    ``source_stack``'s leading axes and ``2 * depth * pad`` larger
    subgrid extents.  The bands arrive composed (see :data:`BANDS`), and
    FILL dimensions overwrite the entire out-of-bounds band of the
    global-edge nodes -- exactly the state ``depth`` sequential
    exchanges would maintain.  ``copies`` and ``guard`` as in
    :func:`_exchange`.

    Returns the per-copy deep-exchange cost statistics.
    """
    return _exchange(
        source_stack,
        padded,
        pattern,
        subgrid_shape,
        params,
        deep_exchange_cost(pattern, subgrid_shape, params, depth),
        composed=True,
        copies=copies,
        guard=guard,
        site=f"deep exchange (depth {depth})",
    )


def exchange_halo_batch(
    stack: np.ndarray,
    padded: np.ndarray,
    pattern: StencilPattern,
    subgrid_shape: Tuple[int, int],
    params: MachineParams,
    *,
    copies: int = 1,
    guard: Optional[FaultGuard] = None,
    site: str = "batch exchange",
) -> CommStats:
    """One machine pass filling the shallow halos of ``copies`` stacked
    grids at once.

    ``stack`` is a ``(..., grid_rows, grid_cols, rows, cols)`` stack
    whose leading axes enumerate independent grids (batch entries,
    filter states); ``padded`` is the preallocated destination with the
    same leading axes and ``2 * pad`` larger subgrid extents.  The data
    of every copy moves in the same slice assignments -- this is the
    batched multi-convolution's amortization primitive -- but each
    copy's halo is a real message, so the caller charges ``copies``
    exchanges at the returned per-copy :class:`CommStats` (and so does
    ``guard``, every attempt).
    """
    return _exchange(
        stack,
        padded,
        pattern,
        subgrid_shape,
        params,
        exchange_cost(pattern, subgrid_shape, params),
        copies=copies,
        guard=guard,
        site=site,
    )


def exchange_halo_deep_width(
    stack: np.ndarray,
    padded: np.ndarray,
    pattern: StencilPattern,
    subgrid_shape: Tuple[int, int],
    params: MachineParams,
    deep: int,
) -> CommStats:
    """A composed-corner deep exchange at an explicit halo width:
    :func:`exchange_halo_group` for one copy, unguarded.  Leading axes
    carry through like :func:`exchange_halo_batch`.
    """
    return exchange_halo_group(stack, padded, pattern, subgrid_shape, params, deep)


def exchange_halo_group(
    stack: np.ndarray,
    padded: np.ndarray,
    pattern: StencilPattern,
    subgrid_shape: Tuple[int, int],
    params: MachineParams,
    deep: int,
    *,
    copies: int = 1,
    guard: Optional[FaultGuard] = None,
    site: str = "group exchange",
) -> CommStats:
    """One machine pass filling a width-``deep`` composed-corner halo
    for ``copies`` stacked grids at once.

    The mixed-footprint variant of :func:`exchange_halo_batch`: when the
    filters sharing an exchange have *different* pads, the group
    exchanges once at the widest pad and every filter reads its own
    centered window of the result (a centered sub-window of a wider
    exchange is bit-identical to that filter's own exchange).  Corners
    arrive composed -- the wider halo must serve filters with diagonal
    reach -- so the per-copy cost is :func:`deep_width_cost`.

    ``pattern`` supplies only the boundary modes and fill value, which
    grouping guarantees are uniform across the group's filters.
    Returns the per-copy cost statistics.
    """
    return _exchange(
        stack,
        padded,
        pattern,
        subgrid_shape,
        params,
        deep_width_cost(subgrid_shape, params, deep),
        composed=True,
        copies=copies,
        guard=guard,
        site=site,
    )


# ---------------------------------------------------------------------------
# the exchange primitive

#: Message shapes.  ``EDGES``: the four edge messages, corner step
#: skipped (the corner blocks are scrubbed to zero -- temp storage, never
#: read).  ``CORNERS``: the edges plus the corner step's four diagonal
#: messages.  ``BANDS``: north/south bands first, then east/west bands
#: over the *full padded height*, read from the just-filled north/south
#: bands, so the corner blocks arrive as the composed row+column shift
#: with no separate step (deep and group exchanges).
EDGES, CORNERS, BANDS = "edges", "corners", "bands"

#: ``(label, down, right)`` of the edge and corner messages: a shift of
#: ``down``/``right`` node rows/columns on the torus delivers each node
#: the data of the neighbor at the smaller index (+1, its North/West
#: neighbor) or at the larger one (-1).
_SIDES = (("north", 1, 0), ("south", -1, 0), ("west", 0, 1), ("east", 0, -1))
_CORNERS = (("NW", 1, 1), ("NE", 1, -1), ("SW", -1, 1), ("SE", -1, -1))

#: One message: ``(label, (down, right), window)`` (see :func:`_messages`).
_Message = Tuple[str, Tuple[int, int], Tuple[slice, slice]]


def _exchange(
    stack: np.ndarray,
    padded: Union[np.ndarray, Callable[[], np.ndarray]],
    pattern: StencilPattern,
    subgrid_shape: Tuple[int, int],
    params: MachineParams,
    stats: CommStats,
    *,
    composed: bool = False,
    copies: int = 1,
    guard: Optional[FaultGuard] = None,
    site: str,
) -> CommStats:
    """The one exchange primitive behind every public exchange.

    Fills ``padded`` -- a stack with ``stack``'s leading axes and
    ``2 * stats.pad`` larger subgrid extents, or a function returning
    it -- from ``stack`` in one machine pass, every leading-axis copy
    at once.  The messages are :data:`BANDS` when ``composed``, else
    :data:`EDGES` or :data:`CORNERS` as ``stats`` skips the corner step
    or not.  ``copies`` counts the grids the leading axes hold; each
    one's halo is a real message.

    Under ``guard`` (chaos runs) the exchange opens with the hard-fault
    window: the injector may break hardware, and a dead participant
    misses the deadline -- before ``padded`` is produced, any data moves
    or anything is charged.  Then every attempt is charged ``copies``
    times, bands that crossed a dead link are garbled, the injector may
    corrupt any message, and every message is parity-checked against
    the senders' data.  A failed check is localized to routes for the
    health monitor and retried with capped backoff, up to
    ``policy.max_retries`` retries.

    Raises ValueError when the halo is wider than the subgrid.  Returns
    ``stats``.
    """
    width = stats.pad
    if width > min(subgrid_shape):
        raise ValueError(
            f"{site}: halo width {width} exceeds the subgrid extent "
            f"{tuple(subgrid_shape)}; the exchange primitive reaches only "
            "immediate neighbors"
        )
    shape = BANDS if composed else EDGES if stats.corner_step_skipped else CORNERS
    if guard is None:
        if callable(padded):
            padded = padded()
        _fill(stack, padded, pattern, subgrid_shape, width, shape)
        return stats

    # The hard-fault window, before the destination exists.
    guard.begin_exchange(site)
    if callable(padded):
        padded = padded()
    machine, monitor = guard.machine, guard.monitor
    messages = _messages(width, subgrid_shape, shape)
    # The senders' data: the model of each message's sender-side checksum.
    expected = np.zeros_like(padded)
    _fill(stack, expected, pattern, subgrid_shape, width, shape)
    charges = max(1, copies)
    attempt = 0
    while True:
        attempt += 1
        _fill(stack, padded, pattern, subgrid_shape, width, shape)
        for _ in range(charges):
            guard.charge_exchange(stats, retry=attempt > 1)
        if machine is not None and _garble_dead_links(machine, padded, messages):
            _apply_fill(padded, pattern, subgrid_shape, width, shape)
        guard.inject_halo(
            [(label, padded[(Ellipsis,) + window]) for label, _, window in messages]
        )
        bad = [
            label
            for label, _, window in messages
            if parity_word(padded[(Ellipsis,) + window])
            != parity_word(expected[(Ellipsis,) + window])
        ]
        if not bad:
            if monitor is not None:
                for _ in range(charges):
                    monitor.charge_detours(
                        width, subgrid_shape, params, full_height_ew=composed
                    )
            return stats
        guard.note_detected("halo_checksum", site, ", ".join(bad))
        # Route diagnosis: attribute the failures to physical links so
        # a dead link is confirmed (and routed around) after enough
        # failures on the same route.
        if monitor is not None:
            monitor.observe_route_failures(
                _bad_routes(machine, padded, expected, messages), site
            )
        if attempt > guard.policy.max_retries:
            raise RetryExhaustedError(
                f"{site} failed checksum verification on {attempt} "
                f"attempts (bad messages: {', '.join(bad)})"
            )
        guard.charge_backoff(attempt)


def _messages(
    width: int, subgrid_shape: Tuple[int, int], shape: str
) -> List[_Message]:
    """One exchange's messages, as ``(label, (down, right), window)``.

    ``(down, right)`` is the torus shift that delivers the message (see
    :data:`_SIDES`) and ``window`` the region of each node's padded
    buffer it fills.  Only actual messages are listed: the interior is
    the node's own data and scrubbed corners are never read, so neither
    can carry a transmission fault.
    """
    if width == 0:
        return []
    rows, cols = subgrid_shape
    kind = "band" if shape == BANDS else "edge"
    messages = []
    for side, down, right in _SIDES:
        window_rows = _landing(down, width, rows)
        if shape == BANDS and down == 0:
            window_rows = slice(None)
        messages.append(
            (
                f"{side} {kind}",
                (down, right),
                (window_rows, _landing(right, width, cols)),
            )
        )
    if shape == CORNERS:
        messages += [
            (
                f"{corner} corner",
                (down, right),
                (_landing(down, width, rows), _landing(right, width, cols)),
            )
            for corner, down, right in _CORNERS
        ]
    return messages


def _landing(shift: int, width: int, extent: int) -> slice:
    """Where a message delivered by ``shift`` lands along one axis of
    the padded buffer: the low halo (+1), the high halo (-1), or the
    interior span (0)."""
    if shift == 1:
        return slice(None, width)
    if shift == -1:
        return slice(width + extent, None)
    return slice(width, width + extent)


def _sending(shift: int, width: int, extent: int) -> slice:
    """What the sender of a message delivered by ``shift`` sends along
    one subgrid axis: its high rows/columns (+1), its low ones (-1), or
    the whole extent (0)."""
    if shift == 1:
        return slice(extent - width, None)
    if shift == -1:
        return slice(None, width)
    return slice(None)


def _fill(
    stack: np.ndarray,
    padded: np.ndarray,
    pattern: StencilPattern,
    subgrid_shape: Tuple[int, int],
    width: int,
    shape: str,
) -> None:
    """One exchange's pure data movement (no costing, no guard).

    Leading-axes aware (see the module docstring): ``stack`` and
    ``padded`` may carry any number of axes ahead of the node-grid
    pair, and every leading-axis copy is exchanged in the same pass.
    """
    rows, cols = subgrid_shape
    # Every node's interior is its own subgrid.
    padded[..., width : width + rows, width : width + cols] = stack
    # The messages, exchanged with all neighbors at once.
    for _, (down, right), window in _messages(width, subgrid_shape, shape):
        if shape == BANDS and down == 0:
            # The sender's padded columns, north/south bands included.
            sent = padded[..., width : width + cols][
                ..., _sending(right, width, cols)
            ]
        else:
            sent = stack[
                ..., _sending(down, width, rows), _sending(right, width, cols)
            ]
        _torus_shift(padded[(Ellipsis,) + window], sent, down, right)
    if shape == EDGES:
        # Corner step skipped: scrub the corner blocks so a reused
        # buffer matches a freshly allocated one.
        for _, down, right in _CORNERS:
            padded[
                ..., _landing(down, width, rows), _landing(right, width, cols)
            ] = 0.0
    _apply_fill(padded, pattern, subgrid_shape, width, shape)


def _torus_shift(
    dst: np.ndarray, src: np.ndarray, down: int, right: int
) -> None:
    """``dst[...] = np.roll(src, (down, right), axis=(-4, -3))`` for
    shifts of -1, 0 or +1 node, without the rolled temporary: each band
    is assigned straight from its neighbor, plus one slice per shifted
    axis for the torus seam."""
    for dst_rows, src_rows in _seam(down):
        for dst_cols, src_cols in _seam(right):
            dst[..., dst_rows, dst_cols, :, :] = src[..., src_rows, src_cols, :, :]


def _seam(shift: int) -> Tuple[Tuple[slice, slice], ...]:
    """``(destination, source)`` slice pairs of a one-axis torus shift."""
    if shift == 0:
        return ((slice(None), slice(None)),)
    if shift == 1:
        return ((slice(1, None), slice(None, -1)), (slice(0, 1), slice(-1, None)))
    return ((slice(None, -1), slice(1, None)), (slice(-1, None), slice(0, 1)))


def _apply_fill(
    padded: np.ndarray,
    pattern: StencilPattern,
    subgrid_shape: Tuple[int, int],
    width: int,
    shape: str,
) -> None:
    """(Re-)apply the FILL boundary overwrites: the global-edge nodes'
    out-of-bounds bands of every EOSHIFT dimension hold the statement's
    boundary value, corner blocks included unless the corner step is
    skipped.

    Kept separate from the data movement so the guarded path can garble
    the bands a dead link carried and then restore the FILL bands -- no
    message ever crossed a link there, so a dead link cannot corrupt
    them.
    """
    rows, cols = subgrid_shape
    dim_row, dim_col = pattern.plane_dims
    fill = np.float32(pattern.fill_value)
    if pattern.boundary.get(dim_row, BoundaryMode.CIRCULAR) is BoundaryMode.FILL:
        span = slice(width, width + cols) if shape == EDGES else slice(None)
        padded[..., 0, :, :width, span] = fill
        padded[..., -1, :, width + rows :, span] = fill
    if pattern.boundary.get(dim_col, BoundaryMode.CIRCULAR) is BoundaryMode.FILL:
        span = slice(width, width + rows) if shape == EDGES else slice(None)
        padded[..., :, 0, span, :width] = fill
        padded[..., :, -1, span, width + cols :] = fill


def _dead_link_pairs(
    machine: CM2,
) -> List[Tuple[str, Tuple[int, int], Tuple[int, int]]]:
    """Logical coordinate pairs of every dead, un-rerouted link.

    Each entry is ``(orientation, first, second)`` with ``first`` the
    North (for ``"v"``) or West (for ``"h"``) endpoint.  On a 2-wide
    axis the +1 and -1 neighbors share one hypercube wire, so both
    directed pairs are emitted.  Links with a retired endpoint resolve
    to no logical coordinate and are skipped (the spare brought fresh
    wires)."""
    health = machine.health
    pairs: List[Tuple[str, Tuple[int, int], Tuple[int, int]]] = []
    if not health.dead_links:
        return pairs
    grid_rows, grid_cols = machine.shape
    for key, link in health.dead_links.items():
        if key in health.rerouted_links:
            continue
        end_a, end_b = tuple(key)
        la = machine.coord_map.logical(end_a)
        lb = machine.coord_map.logical(end_b)
        if la is None or lb is None:
            continue
        if link.orientation == "v":
            if la[1] != lb[1]:
                continue
            if (la[0] + 1) % grid_rows == lb[0]:
                pairs.append(("v", la, lb))
            if (lb[0] + 1) % grid_rows == la[0]:
                pairs.append(("v", lb, la))
        else:
            if la[0] != lb[0]:
                continue
            if (la[1] + 1) % grid_cols == lb[1]:
                pairs.append(("h", la, lb))
            if (lb[1] + 1) % grid_cols == la[1]:
                pairs.append(("h", lb, la))
    return pairs


def _garble_dead_links(
    machine: CM2,
    padded: np.ndarray,
    messages: List[_Message],
) -> bool:
    """Garble every band that crossed a dead, un-rerouted link.

    Models the hardware truth: a severed wire garbles everything it
    carries, every time, until the runtime routes around it.  Corner
    blocks travel the diagonal hypercube channels and are unaffected.
    The caller re-applies the FILL overwrites afterwards (a FILL band
    carries no message).  Returns True when anything was garbled.
    """
    pairs = _dead_link_pairs(machine)
    if not pairs or not messages:
        return False
    window = {shift: window for _, shift, window in messages}
    nan = np.float32(np.nan)
    for orientation, first, second in pairs:
        # ``first`` is the North (or West) end: ``second`` receives its
        # data through the +1 shift, and it receives ``second``'s
        # through the -1 shift.
        down, right = (1, 0) if orientation == "v" else (0, 1)
        padded[(Ellipsis,) + second + window[down, right]] = nan
        padded[(Ellipsis,) + first + window[-down, -right]] = nan
    return True


def _bad_routes(
    machine: CM2,
    padded: np.ndarray,
    expected: np.ndarray,
    messages: List[_Message],
) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
    """Per-node, per-band parity comparison: which (receiver, sender)
    routes carried a bad message.  Corner blocks are not attributed --
    they travel the diagonal channels, which the link model leaves
    healthy."""
    grid_rows, grid_cols = machine.shape
    bands = [(shift, window) for _, shift, window in messages if 0 in shift]
    routes: List[Tuple[Tuple[int, int], Tuple[int, int]]] = []
    for r in range(grid_rows):
        for c in range(grid_cols):
            for (down, right), window in bands:
                at = (Ellipsis, r, c) + window
                if parity_word(padded[at]) != parity_word(expected[at]):
                    routes.append(
                        ((r, c), ((r - down) % grid_rows, (c - right) % grid_cols))
                    )
    return routes
