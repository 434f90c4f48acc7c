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

Axis convention: every stack-level helper in this module indexes the
node-grid axes at ``-4``/``-3`` and the subgrid axes at ``-2``/``-1``,
so the same data movement serves the classic 4-d
``(grid_rows, grid_cols, rows, cols)`` stacks and the batched
``(batch, ..., grid_rows, grid_cols, rows, cols)`` stacks -- one
machine pass exchanges the halos of every leading-axis copy at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..machine.machine import CM2
from ..machine.memory import parity_word
from ..machine.params import MachineParams
from ..stencil.offsets import BoundaryMode
from ..stencil.pattern import StencilPattern
from .cm_array import CMArray
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


def exchange_halo_deep(
    source_stack: np.ndarray,
    padded: np.ndarray,
    pattern: StencilPattern,
    subgrid_shape: Tuple[int, int],
    params: MachineParams,
    depth: int,
    *,
    guard: Optional[FaultGuard] = None,
) -> CommStats:
    """Fill a ``depth * pad``-deep padded stack by neighbor exchange.

    The batched-only exchange behind temporal blocking: ``source_stack``
    is a ``(grid_rows, grid_cols, rows, cols)`` stack and ``padded`` a
    preallocated ``(grid_rows, grid_cols, rows + 2*deep, cols +
    2*deep)`` destination (typically one of the ping-pong pair).  The
    exchange runs in two passes -- north/south bands first, then
    east/west bands over the *full padded height*, reading the
    just-filled bands -- so the four corner blocks arrive composed, with
    no separate diagonal step.  FILL dimensions then overwrite the
    entire out-of-bounds band of the global-edge nodes, exactly the
    state ``depth`` sequential exchanges would maintain.

    Under ``guard`` (chaos runs), the injector may corrupt or drop
    received bands, every message is checksummed against the senders'
    data, and failed exchanges are retried with capped backoff -- every
    attempt charged to the guard's tallies.

    Returns the deep-exchange cost statistics.
    """
    rows, cols = subgrid_shape
    pad = pattern.border_widths().max_width
    deep = depth * pad
    if deep > min(rows, cols):
        raise ValueError(
            f"deep halo width {deep} exceeds the subgrid extent "
            f"{subgrid_shape}; the exchange primitive reaches only "
            "immediate neighbors"
        )
    stats = deep_exchange_cost(pattern, subgrid_shape, params, depth)
    if guard is None:
        _fill_padded_deep(source_stack, padded, pattern, subgrid_shape, deep)
        return stats

    site = f"deep exchange (depth {depth})"
    # Hard-fault window (see _exchange_halo_guarded).  The machine is
    # known only when the guard is armed for hard faults.
    machine = guard.machine
    guard.begin_exchange(site)
    attempt = 0
    while True:
        attempt += 1
        _fill_padded_deep(source_stack, padded, pattern, subgrid_shape, deep)
        guard.charge_exchange(stats, retry=attempt > 1)
        if machine is not None and _corrupt_dead_links(
            machine, padded, subgrid_shape, deep, full_height_ew=True
        ):
            _apply_fill_deep(padded, pattern, subgrid_shape, deep)
        guard.inject_halo(_deep_regions(padded, deep, subgrid_shape))
        bad = _verify_deep(source_stack, padded, pattern, subgrid_shape, deep)
        if not bad:
            if guard.monitor is not None:
                guard.monitor.charge_detours(
                    deep, subgrid_shape, params, full_height_ew=True
                )
            return stats
        guard.note_detected("halo_checksum", site, ", ".join(bad))
        if guard.monitor is not None:
            expected = np.zeros_like(padded)
            _fill_padded_deep(
                source_stack, expected, pattern, subgrid_shape, deep
            )
            routes = _localize_bad_routes(
                machine, padded, expected, subgrid_shape, deep,
                full_height_ew=True,
            )
            guard.monitor.observe_route_failures(routes, site)
        if attempt > guard.policy.max_retries:
            raise RetryExhaustedError(
                f"deep halo exchange failed checksum verification on "
                f"{attempt} attempts (bad messages: {', '.join(bad)})"
            )
        guard.charge_backoff(attempt)


def _fill_padded_deep(
    source_stack: np.ndarray,
    padded: np.ndarray,
    pattern: StencilPattern,
    subgrid_shape: Tuple[int, int],
    deep: int,
) -> None:
    """The deep exchange's pure data movement (no costing, no guard).

    Leading-axes aware: any axes ahead of the node-grid pair are
    carried through untouched, so a batched stack's every copy is
    exchanged in the same pass.
    """
    rows, cols = subgrid_shape
    padded[..., deep : deep + rows, deep : deep + cols] = source_stack
    if deep == 0:
        return
    # Pass 1: north/south bands (interior width).
    _torus_shift(
        padded[..., :deep, deep : deep + cols],
        source_stack[..., rows - deep :, :],
        1, 0,
    )
    _torus_shift(
        padded[..., deep + rows :, deep : deep + cols],
        source_stack[..., :deep, :],
        -1, 0,
    )
    # Pass 2: east/west bands over the full padded height.  The shifted
    # columns include the neighbors' pass-1 bands, so the corner blocks
    # arrive as the composed row+column shift -- no separate step.
    _torus_shift(padded[..., :deep], padded[..., cols : cols + deep], 0, 1)
    _torus_shift(
        padded[..., deep + cols :], padded[..., deep : 2 * deep], 0, -1
    )
    _apply_fill_deep(padded, pattern, subgrid_shape, deep)


def _apply_fill_deep(
    padded: np.ndarray,
    pattern: StencilPattern,
    subgrid_shape: Tuple[int, int],
    deep: int,
) -> None:
    """(Re-)apply the FILL boundary overwrites to a deep buffer (see
    :func:`_apply_fill_shallow` for why this is separable)."""
    rows, cols = subgrid_shape
    dim_row, dim_col = pattern.plane_dims
    fill = np.float32(pattern.fill_value)
    if pattern.boundary.get(dim_row, BoundaryMode.CIRCULAR) is BoundaryMode.FILL:
        padded[..., 0, :, :deep, :] = fill
        padded[..., -1, :, deep + rows :, :] = fill
    if pattern.boundary.get(dim_col, BoundaryMode.CIRCULAR) is BoundaryMode.FILL:
        padded[..., :, 0, :, :deep] = fill
        padded[..., :, -1, :, deep + cols :] = fill


def _deep_regions(
    padded: np.ndarray, deep: int, subgrid_shape: Tuple[int, int]
) -> List[Tuple[str, np.ndarray]]:
    """The deep exchange's received message bands, as (label, view)."""
    rows, cols = subgrid_shape
    if deep == 0:
        return []
    return [
        ("north band", padded[..., :deep, deep : deep + cols]),
        ("south band", padded[..., deep + rows :, deep : deep + cols]),
        ("west band", padded[..., :deep]),
        ("east band", padded[..., deep + cols :]),
    ]


def _verify_deep(
    source_stack: np.ndarray,
    padded: np.ndarray,
    pattern: StencilPattern,
    subgrid_shape: Tuple[int, int],
    deep: int,
) -> List[str]:
    """Checksum each received band against the senders' data.

    Recomputes the exchange into a scratch destination (the model of
    the sender-side checksum) and compares the parity word of every
    message band.  Returns the labels of mismatched bands.
    """
    expected = np.zeros_like(padded)
    _fill_padded_deep(source_stack, expected, pattern, subgrid_shape, deep)
    got = _deep_regions(padded, deep, subgrid_shape)
    want = _deep_regions(expected, deep, subgrid_shape)
    return [
        label
        for (label, region), (_, reference) in zip(got, want)
        if parity_word(region) != parity_word(reference)
    ]


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
    of every copy moves in the same four slice assignments -- this is
    the batched multi-convolution's amortization primitive -- but each
    copy's halo is a real message, so the caller charges ``copies``
    exchanges at the returned per-copy :class:`CommStats`.

    Under ``guard`` the exchange is checksummed and retried exactly
    like :func:`exchange_halo`'s batched path, with every attempt
    charged ``copies`` times.

    Returns the per-copy cost statistics.
    """
    rows, cols = subgrid_shape
    pad = pattern.border_widths().max_width
    if pad > min(rows, cols):
        raise ValueError(
            f"halo width {pad} exceeds the subgrid extent {subgrid_shape}; "
            "the exchange primitive reaches only immediate neighbors"
        )
    stats = exchange_cost(pattern, subgrid_shape, params)
    if guard is None:
        _fill_padded_shallow(stack, padded, pattern, stats, subgrid_shape)
        return stats

    machine = guard.machine
    guard.begin_exchange(site)
    attempt = 0
    while True:
        attempt += 1
        _fill_padded_shallow(stack, padded, pattern, stats, subgrid_shape)
        for _ in range(max(1, copies)):
            guard.charge_exchange(stats, retry=attempt > 1)
        if machine is not None and _corrupt_dead_links(
            machine, padded, subgrid_shape, stats.pad, full_height_ew=False
        ):
            _apply_fill_shallow(padded, pattern, stats, subgrid_shape)
        guard.inject_halo(_shallow_regions(padded, stats, subgrid_shape))
        bad = _verify_shallow_batched(
            stack, padded, pattern, stats, subgrid_shape
        )
        if not bad:
            if guard.monitor is not None:
                for _ in range(max(1, copies)):
                    guard.monitor.charge_detours(
                        stats.pad, subgrid_shape, params
                    )
            return stats
        guard.note_detected("halo_checksum", site, ", ".join(bad))
        if guard.monitor is not None:
            expected = np.zeros_like(padded)
            _fill_padded_shallow(
                stack, expected, pattern, stats, subgrid_shape
            )
            routes = _localize_bad_routes(
                machine, padded, expected, subgrid_shape, stats.pad,
                full_height_ew=False,
            )
            guard.monitor.observe_route_failures(routes, site)
        if attempt > guard.policy.max_retries:
            raise RetryExhaustedError(
                f"{site} failed checksum verification on {attempt} "
                f"attempts (bad messages: {', '.join(bad)})"
            )
        guard.charge_backoff(attempt)


def exchange_halo_deep_width(
    stack: np.ndarray,
    padded: np.ndarray,
    pattern: StencilPattern,
    subgrid_shape: Tuple[int, int],
    params: MachineParams,
    deep: int,
) -> CommStats:
    """A composed-corner deep exchange at an explicit halo width.

    The batched blocked path exchanges the whole batch's source once at
    the largest deep width any filter in the group needs; each filter
    then copies its centered window out locally (no further messages).
    Leading axes carry through like :func:`exchange_halo_batch`.
    """
    rows, cols = subgrid_shape
    if deep > min(rows, cols):
        raise ValueError(
            f"deep halo width {deep} exceeds the subgrid extent "
            f"{subgrid_shape}; the exchange primitive reaches only "
            "immediate neighbors"
        )
    stats = deep_width_cost(subgrid_shape, params, deep)
    _fill_padded_deep(stack, padded, pattern, subgrid_shape, deep)
    return stats


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

    Under ``guard`` the exchange is checksummed and retried exactly like
    :func:`exchange_halo_deep`, with every attempt charged ``copies``
    times.  Returns the per-copy cost statistics.
    """
    rows, cols = subgrid_shape
    if deep > min(rows, cols):
        raise ValueError(
            f"group halo width {deep} exceeds the subgrid extent "
            f"{subgrid_shape}; the exchange primitive reaches only "
            "immediate neighbors"
        )
    stats = deep_width_cost(subgrid_shape, params, deep)
    if guard is None:
        _fill_padded_deep(stack, padded, pattern, subgrid_shape, deep)
        return stats

    machine = guard.machine
    guard.begin_exchange(site)
    attempt = 0
    while True:
        attempt += 1
        _fill_padded_deep(stack, padded, pattern, subgrid_shape, deep)
        for _ in range(max(1, copies)):
            guard.charge_exchange(stats, retry=attempt > 1)
        if machine is not None and _corrupt_dead_links(
            machine, padded, subgrid_shape, deep, full_height_ew=True
        ):
            _apply_fill_deep(padded, pattern, subgrid_shape, deep)
        guard.inject_halo(_deep_regions(padded, deep, subgrid_shape))
        bad = _verify_deep(stack, padded, pattern, subgrid_shape, deep)
        if not bad:
            if guard.monitor is not None:
                for _ in range(max(1, copies)):
                    guard.monitor.charge_detours(
                        deep, subgrid_shape, params, full_height_ew=True
                    )
            return stats
        guard.note_detected("halo_checksum", site, ", ".join(bad))
        if guard.monitor is not None:
            expected = np.zeros_like(padded)
            _fill_padded_deep(stack, expected, pattern, subgrid_shape, deep)
            routes = _localize_bad_routes(
                machine, padded, expected, subgrid_shape, deep,
                full_height_ew=True,
            )
            guard.monitor.observe_route_failures(routes, site)
        if attempt > guard.policy.max_retries:
            raise RetryExhaustedError(
                f"{site} failed checksum verification on {attempt} "
                f"attempts (bad messages: {', '.join(bad)})"
            )
        guard.charge_backoff(attempt)


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
    batched: bool = True,
    guard: Optional[FaultGuard] = None,
) -> CommStats:
    """Build every node's padded source buffer by neighbor exchange.

    Allocates (or refreshes) the ``<name>__halo__`` buffer on each node
    and fills its interior from the node's own subgrid and its halo from
    the four edge neighbors plus, when the pattern reaches diagonally,
    the four corner neighbors.

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
        batched: perform the exchange as whole-machine slice assignments
            on the stacked storage (one operation per direction, exactly
            like the four-neighbor primitive) instead of a per-node
            Python loop.  Falls back to the per-node loop automatically
            when the source is not stack-backed.
        guard: resilience guard for chaos runs.  When given, the
            injector may corrupt or drop received messages, every
            message is checksummed against the sender's data, and
            failed exchanges are retried with capped backoff -- every
            attempt charged to the guard's tallies.

    Returns the per-node cost statistics.
    """
    rows, cols = source.subgrid_shape
    pad = pattern.border_widths().max_width
    if pad > min(rows, cols):
        raise ValueError(
            f"halo width {pad} exceeds the subgrid extent {source.subgrid_shape}; "
            "the exchange primitive reaches only immediate neighbors"
        )
    stats = exchange_cost(pattern, source.subgrid_shape, params)
    name = into if into is not None else halo_buffer_name(source.name)
    if guard is not None:
        return _exchange_halo_guarded(
            source, pattern, stats, name, batched, guard, params
        )
    if batched and _exchange_halo_batched(source, pattern, stats, name):
        return stats
    _exchange_halo_per_node(source, pattern, stats, name)
    return stats


def _exchange_halo_guarded(
    source: CMArray,
    pattern: StencilPattern,
    stats: CommStats,
    name: str,
    batched: bool,
    guard: FaultGuard,
    params: MachineParams,
) -> CommStats:
    """The checksummed, retried shallow exchange (chaos runs only)."""
    machine = source.machine
    subgrid_shape = source.subgrid_shape
    site = f"exchange into {name!r}"
    # Hard-fault window: the injector may break hardware now, and a
    # dead participant misses the deadline here -- before any data
    # moves and before any exchange is charged.
    guard.begin_exchange(site)
    attempt = 0
    while True:
        attempt += 1
        used_batched = batched and _exchange_halo_batched(
            source, pattern, stats, name
        )
        if not used_batched:
            _exchange_halo_per_node(source, pattern, stats, name)
        guard.charge_exchange(stats, retry=attempt > 1)
        if used_batched:
            padded = machine.stacked(name)
            if _corrupt_dead_links(
                machine, padded, subgrid_shape, stats.pad,
                full_height_ew=False,
            ):
                _apply_fill_shallow(padded, pattern, stats, subgrid_shape)
            guard.inject_halo(_shallow_regions(padded, stats, subgrid_shape))
            bad = _verify_shallow_batched(
                machine.stacked(source.name),
                padded,
                pattern,
                stats,
                subgrid_shape,
            )
        else:
            _corrupt_dead_links_per_node(
                machine, name, pattern, stats, subgrid_shape
            )
            guard.inject_halo(
                _per_node_regions(machine, stats, subgrid_shape, name)
            )
            bad_coords = _verify_shallow_per_node(
                machine, source.name, pattern, stats, subgrid_shape, name
            )
            bad = [f"node({r},{c})" for (r, c) in bad_coords]
        if not bad:
            if guard.monitor is not None:
                guard.monitor.charge_detours(
                    stats.pad, subgrid_shape, params
                )
            return stats
        guard.note_detected("halo_checksum", site, ", ".join(bad))
        # Route diagnosis: attribute the failures to physical links so
        # a dead link is confirmed (and routed around) after enough
        # failures on the same route.
        if guard.monitor is not None:
            if used_batched:
                expected = np.zeros_like(padded)
                _fill_padded_shallow(
                    machine.stacked(source.name),
                    expected,
                    pattern,
                    stats,
                    subgrid_shape,
                )
                routes = _localize_bad_routes(
                    machine, padded, expected, subgrid_shape, stats.pad,
                    full_height_ew=False,
                )
                guard.monitor.observe_route_failures(routes, site)
            else:
                for coord in bad_coords:
                    guard.monitor.probe_node_links(coord, site)
        if attempt > guard.policy.max_retries:
            raise RetryExhaustedError(
                f"halo exchange into {name!r} failed checksum verification "
                f"on {attempt} attempts (bad messages: {', '.join(bad)})"
            )
        guard.charge_backoff(attempt)


def _shallow_regions(
    padded: np.ndarray, stats: CommStats, subgrid_shape: Tuple[int, int]
) -> List[Tuple[str, np.ndarray]]:
    """The batched exchange's received messages, as (label, view).

    Only actual messages are listed: the interior is the node's own
    data and scrubbed corners are never read, so neither can carry a
    transmission fault.
    """
    rows, cols = subgrid_shape
    pad = stats.pad
    if pad == 0:
        return []
    regions = [
        ("north edge", padded[..., :pad, pad : pad + cols]),
        ("south edge", padded[..., pad + rows :, pad : pad + cols]),
        ("west edge", padded[..., pad : pad + rows, :pad]),
        ("east edge", padded[..., pad : pad + rows, pad + cols :]),
    ]
    if not stats.corner_step_skipped:
        regions += [
            ("NW corner", padded[..., :pad, :pad]),
            ("NE corner", padded[..., :pad, pad + cols :]),
            ("SW corner", padded[..., pad + rows :, :pad]),
            ("SE corner", padded[..., pad + rows :, pad + cols :]),
        ]
    return regions


def _verify_shallow_batched(
    stack: np.ndarray,
    padded: np.ndarray,
    pattern: StencilPattern,
    stats: CommStats,
    subgrid_shape: Tuple[int, int],
) -> List[str]:
    """Checksum each received message against the senders' data."""
    expected = np.zeros_like(padded)
    _fill_padded_shallow(stack, expected, pattern, stats, subgrid_shape)
    got = _shallow_regions(padded, stats, subgrid_shape)
    want = _shallow_regions(expected, stats, subgrid_shape)
    return [
        label
        for (label, region), (_, reference) in zip(got, want)
        if parity_word(region) != parity_word(reference)
    ]


def _per_node_regions(
    machine: CM2,
    stats: CommStats,
    subgrid_shape: Tuple[int, int],
    name: str,
) -> List[Tuple[str, np.ndarray]]:
    """Every node's received messages on the per-node fallback path."""
    rows, cols = subgrid_shape
    pad = stats.pad
    if pad == 0:
        return []
    regions: List[Tuple[str, np.ndarray]] = []
    for node in machine.nodes():
        padded = node.memory.buffer(name)
        at = f"({node.coord.row},{node.coord.col})"
        regions += [
            (f"north edge@{at}", padded[:pad, pad : pad + cols]),
            (f"south edge@{at}", padded[pad + rows :, pad : pad + cols]),
            (f"west edge@{at}", padded[pad : pad + rows, :pad]),
            (f"east edge@{at}", padded[pad : pad + rows, pad + cols :]),
        ]
        if not stats.corner_step_skipped:
            regions += [
                (f"NW corner@{at}", padded[:pad, :pad]),
                (f"NE corner@{at}", padded[:pad, pad + cols :]),
                (f"SW corner@{at}", padded[pad + rows :, :pad]),
                (f"SE corner@{at}", padded[pad + rows :, pad + cols :]),
            ]
    return regions


def _verify_shallow_per_node(
    machine: CM2,
    source_name: str,
    pattern: StencilPattern,
    stats: CommStats,
    subgrid_shape: Tuple[int, int],
    name: str,
) -> List[Tuple[int, int]]:
    """Checksum every node's whole padded buffer against a recompute.

    Returns the grid coordinates of nodes whose buffers mismatch (the
    caller formats labels and, under a monitor, probes their links).
    """
    rows, cols = subgrid_shape
    pad = stats.pad
    bad: List[Tuple[int, int]] = []
    expected = np.zeros((rows + 2 * pad, cols + 2 * pad), dtype=np.float32)
    for node in machine.nodes():
        expected[...] = 0.0
        _fill_node_padded(
            machine, node, source_name, pattern, stats, subgrid_shape, expected
        )
        if parity_word(node.memory.buffer(name)) != parity_word(expected):
            bad.append((node.coord.row, node.coord.col))
    return bad


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


def _corrupt_dead_links(
    machine: CM2,
    padded: np.ndarray,
    subgrid_shape: Tuple[int, int],
    depth: int,
    *,
    full_height_ew: bool,
) -> bool:
    """Corrupt every band that crossed a dead, un-rerouted link.

    Models the hardware truth: a severed wire garbles everything it
    carries, every time, until the runtime routes around it.  Corner
    blocks travel the diagonal hypercube channels and are unaffected.
    The caller re-applies the FILL overwrites afterwards (a FILL band
    carries no message).  Returns True when anything was corrupted.
    """
    pairs = _dead_link_pairs(machine)
    if not pairs or depth == 0:
        return False
    rows, cols = subgrid_shape
    d = depth
    nan = np.float32(np.nan)
    for orientation, first, second in pairs:
        if orientation == "v":
            north, south = first, second
            padded[..., south[0], south[1], :d, d : d + cols] = nan
            padded[..., north[0], north[1], d + rows :, d : d + cols] = nan
        else:
            west, east = first, second
            if full_height_ew:
                padded[..., east[0], east[1], :, :d] = nan
                padded[..., west[0], west[1], :, d + cols :] = nan
            else:
                padded[..., east[0], east[1], d : d + rows, :d] = nan
                padded[..., west[0], west[1], d : d + rows, d + cols :] = nan
    return True


def _corrupt_dead_links_per_node(
    machine: CM2,
    name: str,
    pattern: StencilPattern,
    stats: CommStats,
    subgrid_shape: Tuple[int, int],
) -> bool:
    """Per-node variant of :func:`_corrupt_dead_links`: skips FILL
    bands directly instead of re-applying the overwrites."""
    pairs = _dead_link_pairs(machine)
    pad = stats.pad
    if not pairs or pad == 0:
        return False
    rows, cols = subgrid_shape
    grid_rows, grid_cols = machine.shape
    dim_row, dim_col = pattern.plane_dims
    row_fills = (
        pattern.boundary.get(dim_row, BoundaryMode.CIRCULAR)
        is BoundaryMode.FILL
    )
    col_fills = (
        pattern.boundary.get(dim_col, BoundaryMode.CIRCULAR)
        is BoundaryMode.FILL
    )
    nan = np.float32(np.nan)
    for orientation, first, second in pairs:
        if orientation == "v":
            north, south = first, second
            if not (south[0] == 0 and row_fills):
                buffer = machine.node(*south).memory.buffer(name)
                buffer[:pad, pad : pad + cols] = nan
            if not (north[0] == grid_rows - 1 and row_fills):
                buffer = machine.node(*north).memory.buffer(name)
                buffer[pad + rows :, pad : pad + cols] = nan
        else:
            west, east = first, second
            if not (east[1] == 0 and col_fills):
                buffer = machine.node(*east).memory.buffer(name)
                buffer[pad : pad + rows, :pad] = nan
            if not (west[1] == grid_cols - 1 and col_fills):
                buffer = machine.node(*west).memory.buffer(name)
                buffer[pad : pad + rows, pad + cols :] = nan
    return True


def _localize_bad_routes(
    machine: CM2,
    padded: np.ndarray,
    expected: np.ndarray,
    subgrid_shape: Tuple[int, int],
    depth: int,
    *,
    full_height_ew: bool,
) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
    """Per-node, per-band parity comparison: which (receiver, sender)
    routes carried a bad message.  Corner blocks are not attributed --
    they travel the diagonal channels, which the link model leaves
    healthy."""
    rows, cols = subgrid_shape
    d = depth
    if d == 0:
        return []
    grid_rows, grid_cols = machine.shape
    if full_height_ew:
        west_slice = np.s_[:, :d]
        east_slice = np.s_[:, d + cols :]
    else:
        west_slice = np.s_[d : d + rows, :d]
        east_slice = np.s_[d : d + rows, d + cols :]
    bands = [
        (np.s_[:d, d : d + cols], lambda r, c: ((r - 1) % grid_rows, c)),
        (np.s_[d + rows :, d : d + cols], lambda r, c: ((r + 1) % grid_rows, c)),
        (west_slice, lambda r, c: (r, (c - 1) % grid_cols)),
        (east_slice, lambda r, c: (r, (c + 1) % grid_cols)),
    ]
    routes: List[Tuple[Tuple[int, int], Tuple[int, int]]] = []
    for r in range(grid_rows):
        for c in range(grid_cols):
            for band_slice, sender in bands:
                got = padded[..., r, c, :, :][(Ellipsis,) + band_slice]
                want = expected[..., r, c, :, :][(Ellipsis,) + band_slice]
                if parity_word(got) != parity_word(want):
                    routes.append(((r, c), sender(r, c)))
    return routes


def _exchange_halo_batched(
    source: CMArray,
    pattern: StencilPattern,
    stats: CommStats,
    name: str,
) -> bool:
    """The whole-machine exchange: one slice assignment per direction.

    The torus wrap is a roll along the node-grid axes of the stacked
    storage; FILL dimensions then overwrite the halo rows/columns of the
    global-edge nodes with the statement's boundary value.  Returns
    False (having moved nothing) when the source or destination cannot
    be stack-backed, in which case the caller runs the per-node loop.
    """
    machine = source.machine
    rows, cols = source.subgrid_shape
    pad = stats.pad
    stack = machine.stacked(source.name)
    if stack is None:
        return False
    padded = machine.stacked(name)
    if padded is None or padded.shape[2:] != (rows + 2 * pad, cols + 2 * pad):
        padded = machine.alloc_stacked(name, (rows + 2 * pad, cols + 2 * pad))
    _fill_padded_shallow(stack, padded, pattern, stats, (rows, cols))
    return True


def _fill_padded_shallow(
    stack: np.ndarray,
    padded: np.ndarray,
    pattern: StencilPattern,
    stats: CommStats,
    subgrid_shape: Tuple[int, int],
) -> None:
    """The batched exchange's pure data movement (no allocation).

    Leading-axes aware (see the module docstring): ``stack`` and
    ``padded`` may carry any number of axes ahead of the node-grid
    pair, and every leading-axis copy is exchanged in the same pass.
    """
    rows, cols = subgrid_shape
    pad = stats.pad
    # Step 1: every node's interior is its own subgrid.
    padded[..., pad : pad + rows, pad : pad + cols] = stack
    if pad == 0:
        return

    # Step 2: edges, exchanged with all four neighbors at once.  A shift
    # of +1 along a grid axis delivers each node the data of the
    # neighbor at the smaller index (its North/West neighbor), wrapping
    # at the torus seam.
    _torus_shift(
        padded[..., :pad, pad : pad + cols], stack[..., rows - pad :, :], 1, 0
    )
    _torus_shift(
        padded[..., pad + rows :, pad : pad + cols], stack[..., :pad, :], -1, 0
    )
    _torus_shift(
        padded[..., pad : pad + rows, :pad], stack[..., cols - pad :], 0, 1
    )
    _torus_shift(
        padded[..., pad : pad + rows, pad + cols :], stack[..., :pad], 0, -1
    )

    # Step 3: corners, unless the pattern has no diagonal reach.  When
    # skipped, the corner blocks are scrubbed to zero so a reused buffer
    # matches a freshly allocated one (temp storage, never read).
    if stats.corner_step_skipped:
        padded[..., :pad, :pad] = 0.0
        padded[..., :pad, pad + cols :] = 0.0
        padded[..., pad + rows :, :pad] = 0.0
        padded[..., pad + rows :, pad + cols :] = 0.0
    else:
        _torus_shift(
            padded[..., :pad, :pad], stack[..., rows - pad :, cols - pad :],
            1, 1,
        )
        _torus_shift(
            padded[..., :pad, pad + cols :], stack[..., rows - pad :, :pad],
            1, -1,
        )
        _torus_shift(
            padded[..., pad + rows :, :pad], stack[..., :pad, cols - pad :],
            -1, 1,
        )
        _torus_shift(
            padded[..., pad + rows :, pad + cols :], stack[..., :pad, :pad],
            -1, -1,
        )
    _apply_fill_shallow(padded, pattern, stats, subgrid_shape)


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


def _apply_fill_shallow(
    padded: np.ndarray,
    pattern: StencilPattern,
    stats: CommStats,
    subgrid_shape: Tuple[int, int],
) -> None:
    """(Re-)apply the FILL boundary overwrites to a shallow buffer.

    Kept separate from the data movement so the guarded path can apply
    link corruption to the exchanged bands and then restore the FILL
    bands -- no message ever crossed a link there, so a dead link
    cannot corrupt them.
    """
    rows, cols = subgrid_shape
    pad = stats.pad
    if pad == 0:
        return
    dim_row, dim_col = pattern.plane_dims
    fill = np.float32(pattern.fill_value)
    row_fills = (
        pattern.boundary.get(dim_row, BoundaryMode.CIRCULAR)
        is BoundaryMode.FILL
    )
    col_fills = (
        pattern.boundary.get(dim_col, BoundaryMode.CIRCULAR)
        is BoundaryMode.FILL
    )
    if row_fills:
        padded[..., 0, :, :pad, pad : pad + cols] = fill
        padded[..., -1, :, pad + rows :, pad : pad + cols] = fill
    if col_fills:
        padded[..., :, 0, pad : pad + rows, :pad] = fill
        padded[..., :, -1, pad : pad + rows, pad + cols :] = fill
    if stats.corner_step_skipped:
        return
    if row_fills:
        padded[..., 0, :, :pad, :pad] = fill
        padded[..., 0, :, :pad, pad + cols :] = fill
        padded[..., -1, :, pad + rows :, :pad] = fill
        padded[..., -1, :, pad + rows :, pad + cols :] = fill
    if col_fills:
        padded[..., :, 0, :pad, :pad] = fill
        padded[..., :, 0, pad + rows :, :pad] = fill
        padded[..., :, -1, :pad, pad + cols :] = fill
        padded[..., :, -1, pad + rows :, pad + cols :] = fill


def _exchange_halo_per_node(
    source: CMArray,
    pattern: StencilPattern,
    stats: CommStats,
    name: str,
) -> None:
    """The node-by-node exchange (the original implementation); the
    reference the batched path is tested bit-identical against."""
    machine = source.machine
    rows, cols = source.subgrid_shape
    pad = stats.pad
    # The per-node buffers about to be allocated detach from any stale
    # machine-wide stack; drop it so nothing reads the dead copy.
    machine.storage.free(name)

    for node in machine.nodes():
        padded = node.memory.allocate(name, (rows + 2 * pad, cols + 2 * pad))
        _fill_node_padded(
            machine, node, source.name, pattern, stats, (rows, cols), padded
        )


def _fill_node_padded(
    machine: CM2,
    node,
    source_name: str,
    pattern: StencilPattern,
    stats: CommStats,
    subgrid_shape: Tuple[int, int],
    padded: np.ndarray,
) -> None:
    """Fill one node's padded buffer (the per-node pure data movement)."""
    rows, cols = subgrid_shape
    pad = stats.pad
    dim_row, dim_col = pattern.plane_dims
    row_wraps = pattern.boundary.get(dim_row, BoundaryMode.CIRCULAR)
    col_wraps = pattern.boundary.get(dim_col, BoundaryMode.CIRCULAR)
    fill = np.float32(pattern.fill_value)
    grid_rows, grid_cols = machine.shape

    padded[pad : pad + rows, pad : pad + cols] = node.memory.buffer(source_name)
    if pad == 0:
        return
    r, c = node.coord.row, node.coord.col
    at_north = r == 0 and row_wraps is BoundaryMode.FILL
    at_south = r == grid_rows - 1 and row_wraps is BoundaryMode.FILL
    at_west = c == 0 and col_wraps is BoundaryMode.FILL
    at_east = c == grid_cols - 1 and col_wraps is BoundaryMode.FILL

    def subgrid(row: int, col: int) -> np.ndarray:
        return machine.node(row, col).memory.buffer(source_name)

    # Step 2: edges, exchanged with all four neighbors at once.
    padded[:pad, pad : pad + cols] = (
        fill if at_north else subgrid(r - 1, c)[rows - pad :, :]
    )
    padded[pad + rows :, pad : pad + cols] = (
        fill if at_south else subgrid(r + 1, c)[:pad, :]
    )
    padded[pad : pad + rows, :pad] = (
        fill if at_west else subgrid(r, c - 1)[:, cols - pad :]
    )
    padded[pad : pad + rows, pad + cols :] = (
        fill if at_east else subgrid(r, c + 1)[:, :pad]
    )

    # Step 3: corners, unless the pattern has no diagonal reach.
    if stats.corner_step_skipped:
        return
    padded[:pad, :pad] = (
        fill
        if (at_north or at_west)
        else subgrid(r - 1, c - 1)[rows - pad :, cols - pad :]
    )
    padded[:pad, pad + cols :] = (
        fill
        if (at_north or at_east)
        else subgrid(r - 1, c + 1)[rows - pad :, :pad]
    )
    padded[pad + rows :, :pad] = (
        fill
        if (at_south or at_west)
        else subgrid(r + 1, c - 1)[:pad, cols - pad :]
    )
    padded[pad + rows :, pad + cols :] = (
        fill
        if (at_south or at_east)
        else subgrid(r + 1, c + 1)[:pad, :pad]
    )
