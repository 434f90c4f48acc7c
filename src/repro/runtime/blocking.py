"""The modeled clock's price list: boundary groups, temporal blocking,
the closed form of a schedule, and depth selection.

The paper's run-time library amortizes communication *within* one
stencil application: halo storage is allocated once and all four
neighbors are exchanged simultaneously.  Temporal blocking extends the
same idea *across* iterations of an iterated stencil: exchange a halo
``T`` times deeper once per block of ``T`` iterations, then run the
whole block locally, each sub-iteration consuming ``pad`` of the
remaining ghost depth.  One deep exchange replaces ``T`` shallow ones;
the price is redundant compute in the shrinking halo ring (each node
recomputes its neighbors' edge points instead of receiving them) plus
one deep halo exchange per coefficient array, whose border values the
halo-ring computation needs.

This module prices schedules without moving any data.  A run is a
:class:`BlockList`: each filter's iterations in blocks, a block of
``steps`` iterations being one exchange plus ``steps`` passes, ordered
into host calls.  The engine (:mod:`repro.runtime.batch`) runs the list
and records it with :meth:`BlockList.closed_form`, which prices it block
by block (:func:`block_compute` and each pass's exchange cost);
:func:`best_block_depth` compares candidate lists with the same price,
detours over rerouted links included, so the accounting a
:class:`~repro.runtime.batch.StencilRun` reports and the depth chosen
for it always price the schedule the runtime runs.
"""

from __future__ import annotations

from itertools import accumulate
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..compiler.plan import CompiledStencil
from ..machine.params import MachineParams
from ..stencil.offsets import BoundaryMode
from ..stencil.pattern import CoeffKind, StencilPattern
from .halo import CommStats, deep_width_cost, detour_cycles, exchange_cost
from .strips import StripSchedule

#: Depth ceiling for automatic selection: past this the halo ring's
#: redundant compute dwarfs any further exchange amortization.
MAX_AUTO_DEPTH = 8


def array_coefficient_names(pattern: StencilPattern) -> Tuple[str, ...]:
    """Names of the spatially varying coefficient arrays.

    These must be deep-halo exchanged once per blocked call: computing a
    neighbor's edge points locally needs the neighbor's coefficients.
    """
    return tuple(
        dict.fromkeys(
            tap.coeff.name
            for tap in pattern.taps
            if tap.coeff.kind is CoeffKind.ARRAY
        )
    )


def blockable(pattern: StencilPattern) -> bool:
    """Whether a pattern can be temporally blocked at all.

    Patterns with no halo (``pad == 0``) have no exchange to amortize;
    fused extra terms read additional subgrid-shaped source arrays whose
    halos the deep exchange does not manage, so they fall back to the
    per-iteration exchange.
    """
    if pattern.border_widths().max_width == 0:
        return False
    return not pattern.extra_terms


def depth_cap(
    pattern: StencilPattern,
    subgrid_shape: Tuple[int, int],
    iterations: int,
) -> int:
    """The largest feasible block depth for this problem.

    The deep exchange still reaches only immediate neighbors, so the
    full halo depth ``T * pad`` cannot exceed the subgrid extent; depths
    beyond the iteration count or :data:`MAX_AUTO_DEPTH` buy nothing.
    """
    if not blockable(pattern):
        return 1
    pad = pattern.border_widths().max_width
    cap = min(subgrid_shape) // pad
    return max(1, min(cap, iterations, MAX_AUTO_DEPTH))


def block_steps(iterations: int, depth: int) -> Iterator[int]:
    """The per-block sub-iteration counts: full blocks of ``depth``,
    then the remainder."""
    remaining = iterations
    while remaining > 0:
        steps = min(depth, remaining)
        yield steps
        remaining -= steps


def sub_iteration_shapes(
    subgrid_shape: Tuple[int, int], pad: int, steps: int
) -> Iterator[Tuple[int, int]]:
    """Output-region shapes of one block's sub-iterations, first to
    last.  Sub-iteration ``t`` writes a region whose remaining ghost
    depth is ``(steps - 1 - t) * pad``; the last lands exactly on the
    subgrid."""
    rows, cols = subgrid_shape
    for t in range(steps):
        ghost = (steps - 1 - t) * pad
        yield (rows + 2 * ghost, cols + 2 * ghost)


def block_compute(
    compiled: CompiledStencil,
    subgrid_shape: Tuple[int, int],
    steps: int,
    pass_cycles: int,
) -> Tuple[int, int]:
    """The compute price of one ``steps``-iteration block over one grid,
    as ``(cycles, half_strips)``.

    A one-step block is one subgrid-shaped pass of ``pass_cycles`` (the
    cycle-stepped count in exact mode); a deeper block sums its
    sub-iterations' halo-enlarged strip schedules.  The closed form and
    the fault guard's canonical charges both price blocks here.
    """
    if steps == 1:
        schedule = StripSchedule.cached(compiled, subgrid_shape)
        return pass_cycles, schedule.num_half_strips
    pad = compiled.pattern.border_widths().max_width
    cycles = half_strips = 0
    for shape in sub_iteration_shapes(subgrid_shape, pad, steps):
        schedule = StripSchedule.cached(compiled, shape)
        cycles += schedule.compute_cycles(compiled.params)
        half_strips += schedule.num_half_strips
    return cycles, half_strips


def _boundary_key(pattern: StencilPattern):
    dim_row, dim_col = pattern.plane_dims
    row_mode = pattern.boundary.get(dim_row, BoundaryMode.CIRCULAR)
    col_mode = pattern.boundary.get(dim_col, BoundaryMode.CIRCULAR)
    fill = (
        float(np.float32(pattern.fill_value))
        if BoundaryMode.FILL in (row_mode, col_mode)
        else None
    )
    return (row_mode, col_mode, fill)


class ClosedForm(NamedTuple):
    """The fault-free totals of a schedule."""

    num_exchanges: int
    coeff_exchanges: int
    total_comm_cycles: int
    total_compute_cycles: int
    total_half_strips: int


class FilterShare(NamedTuple):
    """One filter's share of a schedule's closed form (the fields of
    :class:`~repro.runtime.batch.FilterCost` it prices)."""

    shared_exchanges: int
    own_exchanges: int
    coeff_exchanges: int
    comm_cycles: float
    compute_cycles: int
    half_strips: int


class Pass(NamedTuple):
    """One host call: a machine pass exchanging halos ``width`` wide,
    then a block of ``steps`` iterations for each ``(filter, steps)`` in
    ``blocks``.  A group's first pass (``start == 0``) exchanges the
    source once per grid for every member; a later one each member's
    result slab.  The messages are edges (plus the corner step when
    ``cost`` takes it) when the blocks are one step and share a
    footprint, else bands ``composed`` at the widest ``steps * pad``.
    ``cost`` prices one message."""

    start: int
    group: int
    blocks: Tuple[Tuple[int, int], ...]
    width: int
    composed: bool
    cost: CommStats

    def messages(self, batch: int) -> int:
        return batch if self.start == 0 else batch * len(self.blocks)


class BlockList:
    """A run's schedule: each filter's blocks (:func:`block_steps`), as
    host calls (:class:`Pass`) in run order.

    Per boundary group, iteration 0 is one pass shared by every
    member's first block.  After that the one-step blocks of the group's
    depth-1 members share one gathered pass per iteration, and every
    block of a deeper member -- its one-step tail too -- is a pass of
    its own.  Members deeper than 1 also deep-exchange each array
    coefficient once per (name, width), for the whole batch, before the
    group's first pass (:attr:`coefficients`: ``(group, filter, name,
    width)``); a one-step block reads no coefficient halo.
    """

    def __init__(
        self,
        filters: Sequence[CompiledStencil],
        subgrid_shape: Tuple[int, int],
        iterations: int,
        depths: Sequence[int],
    ) -> None:
        self.filters = tuple(filters)
        self.subgrid = tuple(subgrid_shape)
        self.iterations = iterations
        self.depths = tuple(depths)
        self.params = self.filters[0].params
        self.comms = [
            exchange_cost(f.pattern, self.subgrid, self.params)
            for f in self.filters
        ]
        # Halo-sharing groups: same (row mode, col mode, fill value).
        by_key: Dict[object, List[int]] = {}
        for fi, compiled in enumerate(self.filters):
            by_key.setdefault(_boundary_key(compiled.pattern), []).append(fi)
        self.groups = [tuple(members) for members in by_key.values()]
        self.coefficients: List[Tuple[int, int, str, int]] = []
        self.passes: List[Pass] = []
        starts = []  # per filter: block start -> steps
        for depth in self.depths:
            steps = list(block_steps(iterations, depth))
            starts.append(dict(zip(accumulate(steps, initial=0), steps)))
        for gi, members in enumerate(self.groups):
            keys = set()
            for fi in members:
                width = self.depths[fi] * self.comms[fi].pad
                for name in array_coefficient_names(self.filters[fi].pattern):
                    if self.depths[fi] > 1 and (name, width) not in keys:
                        keys.add((name, width))
                        self.coefficients.append((gi, fi, name, width))
        for start in range(iterations):
            for gi, members in enumerate(self.groups):
                shared = [
                    fi for fi in members if not start or self.depths[fi] == 1
                ]
                self._add(start, gi, [(fi, starts[fi][start]) for fi in shared])
                for fi in members:
                    if fi not in shared and start in starts[fi]:
                        self._add(start, gi, [(fi, starts[fi][start])])

    def _add(self, start: int, gi: int, blocks: List[Tuple[int, int]]) -> None:
        if not blocks:
            return
        comms = [self.comms[fi] for fi, _ in blocks]
        width = max(steps * c.pad for (_, steps), c in zip(blocks, comms))
        shallow = all(steps == 1 for _, steps in blocks) and (
            len({(c.pad, c.corner_step_skipped) for c in comms}) == 1
        )
        cost = comms[0] if shallow else deep_width_cost(
            self.subgrid, self.params, width
        )
        self.passes.append(
            Pass(start, gi, tuple(blocks), width, not shallow, cost)
        )

    def checkpoints(self, interval: int) -> FrozenSet[int]:
        """Where a guarded run checkpoints: the first iteration at or
        after each multiple of ``interval`` where every filter's block
        ends, short of the last iteration.  At depth 1 that is every
        ``interval`` iterations; ``interval`` 0 takes none."""
        if interval <= 0:
            return frozenset()
        ends = set(range(1, self.iterations))
        for depth in self.depths:
            ends &= set(accumulate(block_steps(self.iterations, depth)))
        marks = (
            min((end for end in ends if end >= multiple), default=None)
            for multiple in range(interval, self.iterations, interval)
        )
        return frozenset(mark for mark in marks if mark is not None)

    def closed_form(
        self, batch: int, pass_cycles: Optional[Sequence[int]] = None
    ) -> Tuple[ClosedForm, int, Tuple[FilterShare, ...]]:
        """The fault-free price of the list over ``batch`` grids: the
        totals, the host calls (one per pass), and each filter's share.

        ``pass_cycles`` is each filter's node cycles of one one-step
        block over one grid (the closed-form schedule's by default).  A
        pass moves :meth:`Pass.messages` messages at its ``cost``, a
        first pass split evenly among its members; each coefficient deep
        exchange is charged once, for the whole batch.  Compute and
        executed half strips scale with ``batch``."""
        if pass_cycles is None:
            pass_cycles = [
                StripSchedule.cached(f, self.subgrid).compute_cycles(self.params)
                for f in self.filters
            ]
        count = len(self.filters)
        shared, own, coeff = [0] * count, [0] * count, [0] * count
        first, comm = [0.0] * count, [0] * count
        compute, strips = [0] * count, [0] * count
        num_exchanges = comm_cycles = 0
        for _, fi, _, width in self.coefficients:
            cycles = deep_width_cost(self.subgrid, self.params, width).cycles
            coeff[fi] += 1
            comm[fi] += cycles
            comm_cycles += cycles
        for p in self.passes:
            messages = p.messages(batch)
            num_exchanges += messages
            comm_cycles += messages * p.cost.cycles
            for fi, steps in p.blocks:
                if p.start:
                    own[fi] += batch
                    comm[fi] += batch * p.cost.cycles
                else:
                    shared[fi] += 1
                    first[fi] = batch * p.cost.cycles / len(p.blocks)
                cycles, half_strips = block_compute(
                    self.filters[fi], self.subgrid, steps, pass_cycles[fi]
                )
                compute[fi] += batch * cycles
                strips[fi] += batch * half_strips
        return (
            ClosedForm(
                num_exchanges, len(self.coefficients), comm_cycles,
                sum(compute), sum(strips),
            ),
            len(self.passes),
            tuple(
                FilterShare(
                    shared[fi], own[fi], coeff[fi], first[fi] + comm[fi],
                    compute[fi], strips[fi],
                )
                for fi in range(count)
            ),
        )

    def detour(self, machine, batch: int) -> int:
        """Extra-hop cycles the list's exchanges pay over ``machine``'s
        rerouted links: what a guarded run charges for them (zero with
        no machine or no rerouted link)."""
        subgrid, params = self.subgrid, self.params
        total = sum(
            detour_cycles(machine, subgrid, params, width, True)
            for *_, width in self.coefficients
        )
        for p in self.passes:
            total += p.messages(batch) * detour_cycles(
                machine, subgrid, params, p.width, p.composed
            )
        return total

    def seconds(self, batch: int, machine=None) -> float:
        """Modeled elapsed time of the list over ``batch`` grids on
        ``machine``: the closed form, plus the detours of its rerouted
        links."""
        totals, host_calls, _ = self.closed_form(batch)
        seconds = elapsed_seconds(
            self.params,
            totals.total_comm_cycles + totals.total_compute_cycles,
            host_calls,
            totals.total_half_strips // batch,
        )
        detour = self.detour(machine, batch)
        if detour:
            seconds += self.params.seconds(detour)
        return seconds


def elapsed_seconds(
    params: MachineParams, cycles: int, host_calls: int, host_half_strips: int
) -> float:
    """Modeled elapsed wall clock: ``cycles`` machine cycles plus the
    front end's time to issue the run -- the per-call fixed cost for
    every run-time-library call (one per machine pass or later temporal
    block) and the issue cost of every issued half strip.  The host and
    the sequencer do not overlap in this SIMD regime."""
    return params.seconds(cycles) + (
        host_calls * params.host_fixed_s
        + host_half_strips * params.host_halfstrip_s
    )


def best_block_depth(
    compiled: CompiledStencil,
    subgrid_shape: Tuple[int, int],
    iterations: int,
    max_depth: Optional[int] = None,
    machine=None,
    batch: int = 1,
) -> int:
    """The block depth with the lowest modeled elapsed time for one
    filter over ``batch`` grids.

    Prices every feasible depth's one-filter :class:`BlockList` with
    :meth:`BlockList.seconds` and keeps the cheapest; ties go to the
    shallower depth (less temporary storage, less redundant work).
    Returns 1 -- no blocking -- whenever the deep exchanges saved never
    repay the halo ring's redundant compute, which on this machine model
    is the common regime: grid communication is cheap per element, so
    blocking wins only where the per-exchange startup dominates (small
    subgrids, many iterations).  Source exchanges scale with ``batch``
    while coefficient deep exchanges do not, so the break-even point
    moves earlier as the batch grows.  With ``machine``, every exchange
    pays its detour over rerouted links (:meth:`BlockList.detour`)
    exactly as a guarded run is charged.  A filter with siblings runs
    in a shared schedule this does not see;
    :func:`~repro.compiler.driver.select_batch_block_depths` prices the
    set.
    """
    cap = depth_cap(compiled.pattern, subgrid_shape, iterations)
    if max_depth is not None:
        cap = min(cap, max_depth)
    best = 1
    best_seconds = None
    for depth in range(1, cap + 1):
        seconds = BlockList(
            (compiled,), subgrid_shape, iterations, (depth,)
        ).seconds(batch, machine)
        if best_seconds is None or seconds < best_seconds:
            best = depth
            best_seconds = seconds
    return best
