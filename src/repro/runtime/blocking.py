"""Temporal blocking: the deep-halo comm/compute cost model.

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

This module prices that trade without moving any data.  The executor
(:func:`repro.runtime.executor.machine_execute_blocked`) and the
plan-level depth selector
(:func:`repro.compiler.driver.select_block_depth`) both consume it, so
the accounting reported by :class:`~repro.runtime.stencil_op.StencilRun`
and the depth actually chosen always agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from ..compiler.plan import CompiledStencil
from ..stencil.pattern import CoeffKind, StencilPattern
from .halo import CommStats, deep_exchange_cost
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
    :func:`blocked_costs`."""
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
class BlockedCosts:
    """The modeled cost of one filter's iterated run over ``batch`` grids
    at block depth ``T`` (a solo run is ``batch == 1``).

    Exchanges and compute scale with ``batch`` -- every grid's halo
    really moves, every grid's block really runs -- but coefficient deep
    exchanges are charged once: the coefficients are shared by every
    grid, so blocking's fixed cost amortizes over the batch.  The front
    end issues each block's half-strip schedule once
    (``host_half_strips``); the sequencer's batch-stride loop executes it
    ``batch`` times (``total_half_strips``).  The depth selector prices
    each filter alone: sharing a group exchange only ever removes cost,
    so the per-filter optimum is conservative.

    Attributes:
        depth: the block depth ``T``.
        batch: the number of grids ``B``.
        num_blocks: machine passes, ``ceil(iterations / T)``.
        num_exchanges: source halo messages, ``num_blocks * batch``.
        coeff_exchanges: coefficient deep exchanges (once per array
            coefficient, reused by every block; zero at depth 1).
        block_comm: cost of one grid's full-depth deep exchange.
        total_comm_cycles: all exchange cycles, source and coefficient.
        total_compute_cycles: node cycles over every grid's every
            (halo-enlarged) sub-iteration.
        total_half_strips: microcode invocations executed.
        host_half_strips: half-strip schedules issued.
    """

    depth: int
    batch: int
    num_blocks: int
    num_exchanges: int
    coeff_exchanges: int
    block_comm: CommStats
    total_comm_cycles: int
    total_compute_cycles: int
    total_half_strips: int
    host_half_strips: int

    def modeled_seconds(self, params, iterations: int) -> float:
        """Modeled elapsed wall clock: machine cycles plus the front
        end's overhead.  The host issues ONE run-time-library call per
        block (the deep exchange and the whole local sub-iteration loop
        ride on it), so the per-call fixed cost is charged per block --
        that amortization is half the point of fusing -- and every
        issued half strip pays the microcode-issue cost."""
        machine = params.seconds(
            self.total_comm_cycles + self.total_compute_cycles
        )
        host = (
            self.num_blocks * params.host_fixed_s
            + self.host_half_strips * params.host_halfstrip_s
        )
        return machine + host


def blocked_costs(
    compiled: CompiledStencil,
    subgrid_shape: Tuple[int, int],
    iterations: int,
    depth: int,
    batch: int = 1,
) -> BlockedCosts:
    """Price an iterated run over ``batch`` grids at block depth
    ``depth``.

    ``depth == 1`` reproduces the unblocked accounting exactly: one
    shallow exchange per grid and one subgrid-shaped schedule per
    iteration, no coefficient exchanges.
    """
    pattern = compiled.pattern
    params = compiled.params
    coeff_exchanges = (
        len(array_coefficient_names(pattern)) if depth > 1 else 0
    )
    full_stats = deep_exchange_cost(pattern, subgrid_shape, params, depth)
    comm_cycles = coeff_exchanges * full_stats.cycles
    compute_cycles = 0
    half_strips = 0
    num_blocks = 0
    for steps in block_steps(iterations, depth):
        num_blocks += 1
        comm_cycles += batch * deep_exchange_cost(
            pattern, subgrid_shape, params, steps
        ).cycles
        cycles, strips = block_compute_cycles(compiled, subgrid_shape, steps)
        compute_cycles += batch * cycles
        half_strips += strips
    return BlockedCosts(
        depth=depth,
        batch=batch,
        num_blocks=num_blocks,
        num_exchanges=num_blocks * batch,
        coeff_exchanges=coeff_exchanges,
        block_comm=full_stats,
        total_comm_cycles=comm_cycles,
        total_compute_cycles=compute_cycles,
        total_half_strips=batch * half_strips,
        host_half_strips=half_strips,
    )


def reroute_penalty_cycles(
    machine, subgrid_shape: Tuple[int, int], params, depth: int, pad: int
) -> int:
    """Detour surcharge one full-depth deep exchange pays on ``machine``
    for its currently rerouted links.

    Mirrors the runtime's actual charge
    (:meth:`repro.runtime.faults.HealthMonitor.charge_detours` with
    full-height E/W bands, as blocked deep exchanges use): per rerouted
    link, one extra hop's startup plus the per-element cost of the band
    that link carried.  Zero on a healthy machine (or with no machine at
    all), so the fault-free depth choice is untouched.
    """
    if machine is None:
        return 0
    health = getattr(machine, "health", None)
    if health is None or not health.rerouted_links:
        return 0
    rows, cols = subgrid_shape
    deep = depth * pad
    penalty = 0
    for key in health.rerouted_links:
        state = health.dead_links.get(key)
        if state is None:
            continue
        if state.orientation == "v":
            elements = 2 * deep * cols
        else:
            elements = 2 * deep * (rows + 2 * deep)
        penalty += params.comm_startup_cycles + int(
            params.comm_cycles_per_element * elements
        )
    return penalty


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

    Sweeps every feasible depth through :func:`blocked_costs` and keeps
    the cheapest; ties go to the shallower depth (less temporary
    storage, less redundant work).  Returns 1 -- no blocking -- whenever
    the deep exchanges saved never repay the halo ring's redundant
    compute, which on this machine model is the common regime: grid
    communication is cheap per element, so blocking wins only where the
    per-exchange startup dominates (small subgrids, many iterations).
    Source exchanges scale with ``batch`` while coefficient deep
    exchanges do not, so the break-even point moves earlier as the
    batch grows.

    When ``machine`` carries rerouted links (hard link faults routed
    around), every candidate's exchanges are surcharged with the
    per-depth detour cost (:func:`reroute_penalty_cycles`), so the
    selection prices the machine as it is, not as it was built.
    """
    cap = depth_cap(compiled.pattern, subgrid_shape, iterations)
    if max_depth is not None:
        cap = min(cap, max_depth)
    pad = compiled.pattern.border_widths().max_width
    best = 1
    best_seconds = None
    for depth in range(1, cap + 1):
        costs = blocked_costs(compiled, subgrid_shape, iterations, depth, batch)
        seconds = costs.modeled_seconds(compiled.params, iterations)
        penalty = reroute_penalty_cycles(
            machine, subgrid_shape, compiled.params, depth, pad
        )
        if penalty:
            total_exchanges = costs.num_exchanges + costs.coeff_exchanges
            seconds += compiled.params.seconds(penalty * total_exchanges)
        if best_seconds is None or seconds < best_seconds:
            best = depth
            best_seconds = seconds
    return best
