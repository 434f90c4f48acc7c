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

This module prices schedules without moving any data.
:func:`closed_form` is the one price of a schedule: the engine
(:mod:`repro.runtime.batch`) records every run with it, and
:func:`best_block_depth` prices each candidate depth with it, so the
accounting a :class:`~repro.runtime.batch.StencilRun` reports and the
depth actually chosen always agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..compiler.plan import CompiledStencil
from ..machine.params import MachineParams
from ..stencil.offsets import BoundaryMode
from ..stencil.pattern import CoeffKind, StencilPattern
from .halo import (
    CommStats,
    deep_exchange_cost,
    deep_width_cost,
    detour_cycles,
    exchange_cost,
)
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
    return not getattr(pattern, "extra_terms", ())


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


def block_compute_cycles(
    compiled: CompiledStencil,
    subgrid_shape: Tuple[int, int],
    steps: int,
) -> Tuple[int, int]:
    """Compute cost of one ``steps``-deep temporal block, as
    ``(cycles, half_strips)`` summed over its sub-iterations'
    (halo-enlarged) strip schedules.  The unit the resilient runtime
    charges per block attempt, and the inner term of
    :func:`closed_form`."""
    pad = compiled.pattern.border_widths().max_width
    params = compiled.params
    cycles = 0
    half_strips = 0
    for shape in sub_iteration_shapes(subgrid_shape, pad, steps):
        schedule = StripSchedule.cached(compiled, shape)
        cycles += schedule.compute_cycles(params)
        half_strips += schedule.num_half_strips
    return cycles, half_strips


@dataclass(frozen=True)
class BoundaryGroup:
    """Filters sharing one halo exchange: same boundary treatment.

    ``uniform`` groups (every member the same pad AND the same corner
    reach) exchange at exactly that footprint, honoring the corner-step
    skip; mixed groups exchange once at ``width`` (the widest member's
    pad) with composed corners, and each member reads its own centered
    sub-window.  ``cost`` is one copy's shallow group exchange.
    """

    indices: Tuple[int, ...]
    uniform: bool
    width: int
    representative: StencilPattern
    cost: CommStats


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


def boundary_groups(
    patterns: Sequence[StencilPattern],
    comms: Sequence[CommStats],
    subgrid_shape: Tuple[int, int],
    params: MachineParams,
) -> List[BoundaryGroup]:
    """Partition filters into halo-sharing groups by boundary treatment
    (``comms`` holds each filter's own shallow exchange cost)."""
    by_key: Dict[object, List[int]] = {}
    for index, pattern in enumerate(patterns):
        by_key.setdefault(_boundary_key(pattern), []).append(index)
    groups = []
    for indices in by_key.values():
        footprints = {
            (comms[i].pad, comms[i].corner_step_skipped) for i in indices
        }
        uniform = len(footprints) == 1
        width = max(comms[i].pad for i in indices)
        groups.append(
            BoundaryGroup(
                indices=tuple(indices),
                uniform=uniform,
                width=width,
                representative=patterns[indices[0]],
                cost=(
                    comms[indices[0]]
                    if uniform
                    else deep_width_cost(subgrid_shape, params, width)
                ),
            )
        )
    return groups


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


def closed_form(
    filters: Sequence[CompiledStencil],
    subgrid_shape: Tuple[int, int],
    batch: int,
    iterations: int,
    depths: Sequence[int],
    pass_cycles: Sequence[int],
) -> Tuple[ClosedForm, int, Tuple[FilterShare, ...]]:
    """The fault-free price of ``filters`` over ``batch`` grids for
    ``iterations`` iterations at per-filter block ``depths``: the
    totals, the host calls, and each filter's share.

    ``pass_cycles`` is each filter's node cycles of one unblocked,
    subgrid-shaped pass over one grid.  Unblocked, every boundary group
    runs one machine pass per iteration: ``batch`` messages at
    iteration 0, ``batch * members`` after, one host call each.
    Blocked, each group shares one machine pass at its widest deep
    width, deep-exchanges every array coefficient once per (name,
    depth) -- shared by the whole batch -- and then runs each filter's
    later blocks, one host call and ``batch`` messages each.  Compute
    and executed half strips scale with ``batch``; the front end issues
    each schedule once (``total_half_strips // batch``).
    """
    params = filters[0].params
    count = len(filters)
    shared, own, coeff = [0] * count, [0] * count, [0] * count
    comm = [0.0] * count
    compute, strips = [0] * count, [0] * count
    comms = [exchange_cost(f.pattern, subgrid_shape, params) for f in filters]
    groups = boundary_groups(
        [f.pattern for f in filters], comms, subgrid_shape, params
    )
    num_exchanges = coeff_exchanges = comm_cycles = host_calls = 0
    blocked = any(depth > 1 for depth in depths)
    for group in groups:
        members = group.indices
        if not blocked:
            cost = group.cost.cycles
            messages = batch * (1 + (iterations - 1) * len(members))
            num_exchanges += messages
            comm_cycles += messages * cost
            host_calls += iterations
            for fi in members:
                shared[fi] += 1
                own[fi] += batch * (iterations - 1)
                comm[fi] += batch * cost / len(members)
                comm[fi] += batch * (iterations - 1) * cost
                compute[fi] += batch * iterations * pass_cycles[fi]
                strips[fi] += batch * iterations * StripSchedule.cached(
                    filters[fi], subgrid_shape
                ).num_half_strips
            continue
        deeps = {fi: depths[fi] * comms[fi].pad for fi in members}
        widest = max(deeps.values())
        first = deep_width_cost(subgrid_shape, params, widest).cycles
        num_exchanges += batch
        comm_cycles += batch * first
        host_calls += 1
        coeff_done = set()
        for fi in members:
            compiled = filters[fi]
            pattern = compiled.pattern
            shared[fi] += 1
            comm[fi] += batch * first / len(members)
            coeff_cost = deep_exchange_cost(
                pattern, subgrid_shape, params, depths[fi]
            ).cycles
            for name in array_coefficient_names(pattern):
                if (name, deeps[fi]) in coeff_done:
                    continue
                coeff_done.add((name, deeps[fi]))
                coeff[fi] += 1
                coeff_exchanges += 1
                comm[fi] += coeff_cost
                comm_cycles += coeff_cost
            for index, steps in enumerate(block_steps(iterations, depths[fi])):
                if index:
                    cost = deep_exchange_cost(
                        pattern, subgrid_shape, params, steps
                    ).cycles
                    own[fi] += batch
                    comm[fi] += batch * cost
                    num_exchanges += batch
                    comm_cycles += batch * cost
                    host_calls += 1
                block_cycles, block_strips = block_compute_cycles(
                    compiled, subgrid_shape, steps
                )
                compute[fi] += batch * block_cycles
                strips[fi] += batch * block_strips
    return (
        ClosedForm(
            num_exchanges, coeff_exchanges, comm_cycles, sum(compute),
            sum(strips),
        ),
        host_calls,
        tuple(map(FilterShare, shared, own, coeff, comm, compute, strips)),
    )


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

    Prices every feasible depth as a one-filter run through
    :func:`closed_form` and :func:`elapsed_seconds` and keeps the
    cheapest; ties go to the shallower depth (less temporary storage,
    less redundant work).  Returns 1 -- no blocking -- whenever the deep
    exchanges saved never repay the halo ring's redundant compute,
    which on this machine model is the common regime: grid
    communication is cheap per element, so blocking wins only where the
    per-exchange startup dominates (small subgrids, many iterations).
    Source exchanges scale with ``batch`` while coefficient deep
    exchanges do not, so the break-even point moves earlier as the
    batch grows.  Sharing a group exchange only ever removes cost, so
    the per-filter optimum is conservative.

    When ``machine`` carries rerouted links (hard link faults routed
    around), every candidate's exchanges are surcharged with the detour
    of a full-depth deep exchange
    (:func:`~repro.runtime.halo.detour_cycles`), so the selection prices
    the machine as it is, not as it was built.
    """
    cap = depth_cap(compiled.pattern, subgrid_shape, iterations)
    if max_depth is not None:
        cap = min(cap, max_depth)
    params = compiled.params
    pad = compiled.pattern.border_widths().max_width
    schedule = StripSchedule.cached(compiled, subgrid_shape)
    cycles = schedule.compute_cycles(params)
    best = 1
    best_seconds = None
    for depth in range(1, cap + 1):
        totals, host_calls, _ = closed_form(
            (compiled,), subgrid_shape, batch, iterations, (depth,), (cycles,)
        )
        seconds = elapsed_seconds(
            params,
            totals.total_comm_cycles + totals.total_compute_cycles,
            host_calls,
            totals.total_half_strips // batch,
        )
        detour = detour_cycles(
            machine, subgrid_shape, params, depth * pad, True
        )
        if detour:
            exchanges = totals.num_exchanges + totals.coeff_exchanges
            seconds += params.seconds(detour * exchanges)
        if best_seconds is None or seconds < best_seconds:
            best = depth
            best_seconds = seconds
    return best
