"""The stencil engine: ``F`` filters over ``B`` grids in one machine pass.

The paper's run-time library is one set of outer loops -- allocate the
halo, exchange, strip-mine, call the microcode -- for every stencil.
This module holds that set once.  :func:`apply_stencil_batch` applies
``F`` compiled filters to ``B`` independent grids in one call, and
:func:`~repro.runtime.stencil_op.apply_stencil` is its 1x1 case: one
filter over a source with no leading axes.  Both return one
:class:`StencilRun`.

Storage extends the classic ``(grid_rows, grid_cols, rows, cols)``
stacks with leading axes::

    source   (B,    grid_rows, grid_cols, rows,  cols )   () for a solo call
    halo     (B,    grid_rows, grid_cols, rows', cols')   one per group
    result   (B, F, grid_rows, grid_cols, rows,  cols )   one filter's slab
                                                          per F index

Because every halo helper indexes the node grid at ``-4``/``-3`` and the
subgrid at ``-2``/``-1``, and 4-d coefficient and fused extra-source
stacks broadcast across the leading axes, the same slice assignments
and the same tap kernel serve any leading shape.  A run is a list of
blocks (:class:`~repro.runtime.blocking.BlockList`), which one loop
runs; an unguarded fast run without fused extra terms computes its
bits in the band schedule instead and is priced as the same list.  Filters are grouped by boundary treatment; each group's first
exchange is ONE machine pass of ``B`` messages serving every member
filter, instead of the ``B x F`` messages a loop of solo calls sends.
Groups whose members share a footprint (same pad, same corner reach)
exchange at exactly that footprint; mixed-footprint groups exchange
once at the widest member's pad with composed corners, and each filter
reads its own centered window -- bit-identical to that filter's own
exchange.

Front-end accounting draws the same distinction the sequencer hardware
does.  The address generator iterates the batch axis with a run-time
base-address stride, so the front end *issues* each filter's half-strip
schedule once per machine pass regardless of ``B``
(``host_half_strips``), while the sequencer *executes* it ``B`` times
(``total_half_strips``, and the dispatch cycles inside the compute
totals).  Host per-call overhead is charged once per group machine
pass, not once per (grid, filter) -- this is where the batch throughput
win over a loop of solo calls comes from on small subgrids.

Bit-identity contract: entry ``(b, f)`` of ``apply_stencil_batch(...)``
equals ``apply_stencil(filters[f], sources[b], ...)`` bit for bit in
float32, for every boundary mode, block depth, execution mode and
recovery path: both run this loop, and shared halos are provably
bit-identical to per-filter halos (centered sub-windows and composed
corners reproduce the solo exchange's bytes; corner-skipping filters
never read corner cells).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..compiler import driver
from ..compiler.plan import CompiledStencil
from ..machine.machine import CM2
from ..machine.memory import global_view
from ..machine.params import MachineParams
from ..stencil.offsets import BoundaryMode
from ..verify.aliasing import AliasingError, check_aliasing
from ..verify.diagnostics import has_errors
from .blocking import (
    BlockList,
    ClosedForm,
    Pass,
    array_coefficient_names,
    block_compute,
    depth_cap,
    elapsed_seconds,
)
from .abft import seal_checksums, verify_and_correct
from .cm_array import (
    CMArray,
    CMArray3D,
    ExecutionSetupError,
    NamedStack,
    depth_offset,
    stack_of,
)
from .executor import (
    band_schedule,
    kernel_array_names,
    machine_execute_blocked,
    machine_execute_exact,
    machine_execute_fast_stack,
    values_equal,
)
from .faults import (
    FaultError,
    FaultGuard,
    FaultInjector,
    FaultStats,
    LinkDownError,
    NodeDeadError,
    NonFiniteInputError,
    NoSpareError,
    ResiliencePolicy,
    SdcUncorrectableError,
)
from .halo import (
    CommStats,
    exchange_halo_batch,
    # Not called here: perfbench's tracer wraps the engine's exchanges
    # by this module's attributes and still looks these up.
    exchange_halo_deep,
    exchange_halo_deep_width,
    exchange_halo_group,
    halo_buffer_name,
)
from .strips import StripSchedule


class CMBatch(NamedStack):
    """A batch of distributed arrays stored as one machine-wide stack.

    The batched counterpart of :class:`~repro.runtime.cm_array.CMArray`:
    ``lead_shape`` axes (batch entries, and for results a filter axis)
    sit ahead of the node grid, so one stacked buffer of shape
    ``lead_shape + (grid_rows, grid_cols, rows, cols)`` holds every
    entry and whole-machine operations (halo exchange, the stacked fast
    executor) serve all of them in one pass.  Like a ``CMArray`` it
    keeps only its name; the machine storage holds the stack.  Node
    memory does not resolve it -- the batch axes are a sequencer-side
    addressing construct; exact mode steps every entry as lanes of one
    pass.
    """

    def __init__(
        self,
        name: str,
        machine: CM2,
        lead_shape: Tuple[int, ...],
        global_shape: Tuple[int, int],
    ) -> None:
        lead_shape = tuple(int(extent) for extent in lead_shape)
        if not lead_shape or any(extent < 1 for extent in lead_shape):
            raise ValueError(
                f"lead_shape must be a non-empty tuple of positive "
                f"extents, got {lead_shape}"
            )
        super().__init__(name, machine, tuple(global_shape), lead_shape)

    @property
    def global_shape(self) -> Tuple[int, int]:
        return self.decomposition.global_shape

    @classmethod
    def from_numpy(cls, name: str, machine: CM2, array: np.ndarray) -> "CMBatch":
        """Create a batch from host data: the last two axes are the
        global array extents, everything ahead of them is the lead
        shape (a copy)."""
        array = np.asarray(array, dtype=np.float32)
        if array.ndim < 3:
            raise ValueError(
                f"a batch needs at least one lead axis ahead of the "
                f"global extents, got shape {array.shape}"
            )
        batch = cls(
            name, machine, tuple(array.shape[:-2]), tuple(array.shape[-2:])
        )
        batch.set(array)
        return batch

    def like(self, name: str, lead_shape: Optional[Tuple[int, ...]] = None) -> "CMBatch":
        """A new zero-filled batch on the same machine and global shape."""
        return CMBatch(
            name,
            self.machine,
            self.lead_shape if lead_shape is None else lead_shape,
            self.global_shape,
        )

    def free(self) -> None:
        """Release the machine storage backing this batch."""
        self.machine.storage.free(self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rows, cols = self.global_shape
        lead = "x".join(str(extent) for extent in self.lead_shape)
        return f"CMBatch({self.name!r}, {lead} of {rows}x{cols})"


@dataclass(frozen=True)
class FilterCost:
    """One filter's share of a run.

    Attributes:
        name: the filter's display name.
        index: its position in the run's filter tuple.
        block_depth: temporal block depth this filter ran at.
        comm: one shallow halo exchange of this filter alone (its pad
            is ``comm.pad``).
        pass_cycles: node cycles of one unblocked, subgrid-shaped pass
            over one grid (counted by the cycle-stepped datapath in
            exact mode, by the closed-form model otherwise).
        pass_half_strips: microcode invocations of that pass.
        shared_exchanges: group machine passes this filter shared (each
            one ``batch`` messages split across the group's members).
        own_exchanges: messages charged solely to this filter (iterated
            re-exchanges of its state; later temporal blocks).
        coeff_exchanges: coefficient deep exchanges this filter caused
            (charged once each, amortized over the whole batch).
        comm_cycles: this filter's exchange cycles -- its own messages
            plus an even share of each shared machine pass (hence a
            float).
        compute_cycles: node compute cycles over all ``batch`` copies.
        half_strips: executed microcode invocations (scaled by
            ``batch``; the sequencer runs the schedule once per entry).
        useful_flops: useful flops this filter contributed to the run.
    """

    name: str
    index: int
    block_depth: int
    comm: CommStats
    pass_cycles: int
    pass_half_strips: int
    shared_exchanges: int
    own_exchanges: int
    coeff_exchanges: int
    comm_cycles: float
    compute_cycles: int
    half_strips: int
    useful_flops: int


@dataclass(frozen=True)
class StencilRun:
    """The outcome and full accounting of one stencil call.

    A call applies ``F`` filters to ``B`` grids; a solo
    :func:`~repro.runtime.stencil_op.apply_stencil` call is ``F = B =
    1``.  Cycle counts are node cycles: the CM-2 is synchronous SIMD, so
    they are identical on every node and independent of machine size.
    Every total covers the whole run; on a guarded run it is the fault
    guard's own tally, which :attr:`reconciled` checks against the
    :attr:`closed_form` plus the :attr:`fault_stats` recovery buckets.

    Attributes:
        filters: the compiled filters, in application order.
        machine: the machine the run used.
        result: the result -- a :class:`~repro.runtime.cm_array.CMArray`
            for a solo call, a
            :class:`~repro.runtime.cm_array.CMArray3D` for a rank-3 one,
            else a ``(batch, filter)``-lead :class:`CMBatch` whose entry
            ``[b, f]`` is filter ``f`` applied to grid ``b``.
        batch: number of source grids ``B`` (a rank-3 call's planes).
        iterations: iterations applied (every filter, every grid).
        exact: whether the cycle-stepped datapath ran.
        block_depths: per-filter temporal block depth (1: one-step blocks).
        num_exchanges: source halo messages charged over the whole run
            (a shared group pass counts ``batch`` messages -- the halos
            really move -- but rides on one machine pass).
        coeff_exchanges: coefficient deep exchanges (filters deeper than
            1); charged once per (coefficient, width), NOT per batch entry.
        total_comm_cycles: all exchange cycles.
        total_compute_cycles: all node compute cycles (scaled by
            ``batch``).
        total_half_strips: microcode invocations *executed* by the
            sequencer (scaled by ``batch``).
        host_calls: run-time-library invocations the host made: one per
            pass of the run's block list.
        per_filter: one :class:`FilterCost` per filter.
        fault_stats: chaos-run fault/retry/recovery accounting; all zero
            on an unguarded run.
        closed_form: the fault-free totals of the rung that finished.
    """

    filters: Tuple[CompiledStencil, ...]
    machine: CM2
    result: Union[CMArray, CMArray3D, CMBatch]
    batch: int
    iterations: int
    exact: bool
    block_depths: Tuple[int, ...]
    num_exchanges: int
    coeff_exchanges: int
    total_comm_cycles: int
    total_compute_cycles: int
    total_half_strips: int
    host_calls: int
    per_filter: Tuple[FilterCost, ...]
    fault_stats: FaultStats
    closed_form: ClosedForm

    @property
    def reconciled(self) -> bool:
        """Whether every total equals the closed form plus its recovery
        bucket (compute also carries the always-on ABFT cycles)."""
        closed, stats = self.closed_form, self.fault_stats
        return (
            self.num_exchanges == closed.num_exchanges
            and self.coeff_exchanges == closed.coeff_exchanges
            and self.total_comm_cycles
            == closed.total_comm_cycles + stats.recovery_comm_cycles()
            and self.total_compute_cycles
            == closed.total_compute_cycles
            + stats.recovery_compute_cycles()
            + stats.abft_cycles
            and self.total_half_strips
            == closed.total_half_strips + stats.recovery_half_strips
        )

    @property
    def params(self) -> MachineParams:
        return self.filters[0].params

    @property
    def compiled(self) -> CompiledStencil:
        """The filter of a one-filter run (ValueError otherwise)."""
        (compiled,) = self.filters
        return compiled

    @property
    def compute_cycles(self) -> int:
        """A one-filter run's node cycles per iteration over one grid,
        unblocked and subgrid-shaped."""
        (cost,) = self.per_filter
        return cost.pass_cycles

    @property
    def half_strips(self) -> int:
        """A one-filter run's microcode invocations per iteration over
        one grid, unblocked."""
        (cost,) = self.per_filter
        return cost.pass_half_strips

    @property
    def comm(self) -> CommStats:
        """A one-filter run's shallow (depth-1) exchange cost."""
        (cost,) = self.per_filter
        return cost.comm

    @property
    def host_half_strips(self) -> int:
        """Half-strip schedules *issued* by the front end: once per
        (filter, machine pass), NOT scaled by ``batch`` -- the
        sequencer's batch-stride address loop repeats an issued
        schedule locally."""
        return self.total_half_strips // self.batch

    @property
    def host_seconds_total(self) -> float:
        """Front-end time: the elapsed formula's host share."""
        return elapsed_seconds(
            self.params, 0, self.host_calls, self.host_half_strips
        )

    @property
    def machine_seconds_per_iteration(self) -> float:
        return (
            self.params.seconds(
                self.total_compute_cycles + self.total_comm_cycles
            )
            / self.iterations
        )

    @property
    def host_seconds_per_iteration(self) -> float:
        return self.host_seconds_total / self.iterations

    @property
    def seconds_per_iteration(self) -> float:
        """Elapsed wall-clock per iteration: machine time plus the
        front-end time to issue the calls (the host and the sequencer do
        not overlap in this SIMD regime)."""
        return self.machine_seconds_per_iteration + self.host_seconds_per_iteration

    @property
    def elapsed_seconds(self) -> float:
        return elapsed_seconds(
            self.params,
            self.total_compute_cycles + self.total_comm_cycles,
            self.host_calls,
            self.host_half_strips,
        )

    @property
    def useful_flops(self) -> int:
        return sum(cost.useful_flops for cost in self.per_filter)

    @property
    def useful_flops_per_node_per_iteration(self) -> int:
        return self.useful_flops // (self.machine.num_nodes * self.iterations)

    @property
    def mflops(self) -> float:
        """Sustained useful Mflops over the whole run.  Blocked runs
        divide the same useful flops by the blocked elapsed time: the
        halo ring's redundant flops cost time but are never counted as
        useful."""
        return self.useful_flops / self.elapsed_seconds / 1e6

    @property
    def gflops(self) -> float:
        return self.mflops / 1e3

    def describe(self) -> str:
        rows, cols = self.result.subgrid_shape
        names = "+".join(
            compiled.pattern.name or "stencil" for compiled in self.filters
        )
        grids = f" x {self.batch} grids" if self.batch > 1 else ""
        depth = max(self.block_depths)
        blocked = f", block depth {depth}" if depth > 1 else ""
        return (
            f"{names}{grids} on {self.machine.num_nodes} nodes, "
            f"{rows}x{cols} subgrids, {self.iterations} iterations"
            f"{blocked}: {self.elapsed_seconds:.2f} s, "
            f"{self.mflops:.1f} Mflops"
        )


def _resolve_depths(
    filters: Sequence[CompiledStencil],
    subgrid_shape: Tuple[int, int],
    iterations: int,
    exact: bool,
    block_depth: Union[int, str],
    batch: int,
    machine: CM2,
    tenant: Optional[str],
) -> Tuple[int, ...]:
    """Resolve the caller's checked ``block_depth`` per filter.

    Exact mode, single calls, and filter sets with a fused extra term
    (the deep exchange does not manage extra sources) resolve every
    filter to depth 1.  An int is clamped per filter to what its pad
    and the subgrid support (1 for unblockable patterns); ``"auto"``
    prices each filter, then the set, through the batch-aware model.
    """
    requested = None if block_depth == "auto" else block_depth
    if exact or iterations < 2 or _fused(filters) or requested == 1:
        return tuple(1 for _ in filters)
    if requested is not None:
        return tuple(
            min(requested, depth_cap(f.pattern, subgrid_shape, iterations))
            for f in filters
        )
    return driver.select_batch_block_depths(
        filters, subgrid_shape, iterations, batch, machine=machine, tenant=tenant
    )


def _fused(filters: Sequence[CompiledStencil]) -> bool:
    """Whether any filter carries fused extra terms, whose sources no
    halo or ghost zone manages."""
    return any(f.pattern.extra_terms for f in filters)


class _Plan:
    """What every rung of one call shares: the filters, the source stack
    and its name, one result slab per filter, the coefficient and
    extra-source stacks by statement name, and a rank-3 call's depth
    taps."""

    def __init__(
        self,
        filters: Tuple[CompiledStencil, ...],
        source_name: str,
        source: np.ndarray,
        result: Union[CMArray, CMArray3D, CMBatch],
        outs: Tuple[np.ndarray, ...],
        out_names: Tuple[str, ...],
        iterations: int,
        depth_boundary: Optional[BoundaryMode],
    ) -> None:
        self.filters = filters
        self.machine = result.machine
        self.params = filters[0].params
        self.source_name = source_name
        self.source = source
        self.result = result
        self.outs = outs
        self.out_names = out_names
        self.iterations = iterations
        self.lead = tuple(source.shape[:-4])
        self.batch = math.prod(self.lead)
        self.subgrid = tuple(source.shape[-2:])
        self.schedules = [StripSchedule.cached(f, self.subgrid) for f in filters]
        self.arrays: Dict[str, np.ndarray] = {}
        #: A rank-3 call's depth taps: fused extra source -> depth offset.
        self.taps: Dict[str, int] = {}
        if depth_boundary is not None:
            self.taps = {
                term.source: depth_offset(term.source)
                for f in filters
                for term in f.pattern.extra_terms
            }
        #: Planes of depth halo on each side of the halo stack's lead axis.
        self.reach = max(map(abs, self.taps.values()), default=0)
        self.depth_boundary = depth_boundary

    def halo_name(self, gi: int) -> str:
        """Group ``gi``'s halo stack: the first group's is the source's
        own halo buffer."""
        return halo_buffer_name(
            f"{self.source_name}__group{gi}" if gi else self.source_name
        )

    def depth_halo(self, halo: np.ndarray, width: int) -> None:
        """Fill the ``reach`` planes on each side of the halo stack's
        middle ones -- wrapped, or zero past a FILL depth boundary -- and
        point every depth tap at the interior ``dz`` planes away: a view,
        as the sequencer takes a run-time base address."""
        reach, depth = self.reach, self.lead[0]
        if self.depth_boundary is BoundaryMode.FILL:
            halo[:reach] = 0.0
            halo[reach + depth :] = 0.0
        else:
            # Plane by plane, so a tap reaching past the whole volume
            # wraps onto an interior plane too.
            for i in range(reach):
                halo[i] = halo[reach + (i - reach) % depth]
                halo[reach + depth + i] = halo[reach + i % depth]
        rows, cols = self.subgrid
        for name, dz in self.taps.items():
            self.arrays[name] = halo[
                reach + dz : reach + dz + depth,
                ...,
                width : width + rows,
                width : width + cols,
            ]

    def padded(self, width: int) -> Tuple[int, int]:
        rows, cols = self.subgrid
        return (rows + 2 * width, cols + 2 * width)

    def window(self, full: int, width: int) -> tuple:
        """The centered width-``width`` window of a buffer padded
        ``full`` wide."""
        rows, cols = self.subgrid
        delta = full - width
        return (
            Ellipsis,
            slice(delta, delta + rows + 2 * width),
            slice(delta, delta + cols + 2 * width),
        )

    def slab_words(self) -> int:
        """Words per node of one filter's result slab."""
        rows, cols = self.subgrid
        return self.batch * rows * cols


def run_stencil(
    filters: Tuple[CompiledStencil, ...],
    source_name: str,
    source: np.ndarray,
    result: Union[CMArray, CMArray3D, CMBatch],
    outs: Tuple[np.ndarray, ...],
    out_names: Tuple[str, ...],
    coefficients: Dict[str, NamedStack],
    *,
    iterations: int,
    exact: bool,
    block_depth: Union[int, str],
    faults: Optional[FaultInjector],
    resilience: Optional[ResiliencePolicy],
    tenant: Optional[str],
    depth_boundary: Optional[BoundaryMode] = None,
) -> StencilRun:
    """The engine behind every entry point, on a call that passed
    :func:`check_call`.

    ``source`` is the source stack (``source_name`` names it and its
    halo buffers), ``outs`` the result slab each filter writes (named
    ``out_names`` in fault sites and ABFT seals), both with the same
    leading axes.  Supplying ``faults`` or ``resilience`` runs the
    guarded recovery ladder; otherwise the block list runs once and the
    record is its closed form.  A rank-3 call passes its
    ``depth_boundary``: its lead axis is depth, and its fused extra
    terms are depth taps read from the pass's own halo stack.

    The plans stream coefficients by *statement* name; the plan maps
    each such name to the stack the caller passed for it, or the one
    resident under it -- run-time base addresses, as the sequencer
    takes them -- and binds nothing in machine storage.
    """
    plan = _Plan(
        filters, source_name, source, result, outs, out_names, iterations,
        depth_boundary,
    )
    machine = plan.machine
    depths = _resolve_depths(
        filters, plan.subgrid, iterations, exact, block_depth, plan.batch,
        machine, tenant,
    )
    guard = None
    if faults is not None or resilience is not None:
        guard = FaultGuard(policy=resilience, injector=faults)
    for f in filters:
        for name in kernel_array_names(f.pattern):
            if name in coefficients:
                plan.arrays[name] = coefficients[name].stacked
            elif name not in plan.taps:
                plan.arrays[name] = stack_of(machine, name)
    return _run_ladder(plan, depths, exact, guard)


def _run_ladder(
    plan: _Plan,
    depths: Tuple[int, ...],
    exact: bool,
    guard: Optional[FaultGuard],
) -> StencilRun:
    """Run the block list; under guard, walk the graceful-degradation
    ladder.

    Rungs, fastest first, are block lists: the resolved depths (when
    any is above 1) -> all one-step blocks -> all one-step blocks on the
    cycle-stepped exact executor.  All three are bit-identical in float32, so
    stepping down after repeated unrecoverable faults changes the run's
    cost, never its results.  The exact rung's datapath is modeled as
    ECC-protected (no executor faults are injected there); the source
    is never modified, so each rung restarts from pristine input.  Guard
    tallies accumulate across rungs -- a degraded run's totals include
    the cycles its failed rungs burned, moved into the replay buckets
    on the step down, so the totals stay closed form + recovery
    buckets.  An unguarded run takes only the first rung -- or, fast
    and without fused extra terms, the band schedule
    (:func:`~repro.runtime.executor.band_schedule`) in its place, priced
    as the same block list.

    Hard faults add a final implicit rung past "exact": spare-node
    remapping.  Arming the guard against the machine enables detection
    (exchange deadlines, route-failure probes); when the machine is
    configured with spares, a genesis checkpoint of every distributed
    stack (and of a staged source) is taken up front -- the reference a
    remap restores the lost tile from.  A dead node is repaired *inside*
    the current rung (remap + restore + replay), not by stepping down:
    no rung can outrun a node whose memory is gone.
    :class:`NoSpareError` and :class:`LinkDownError` are therefore
    unrecoverable-by-degradation and propagate immediately -- the typed
    failure the no-spare guarantee demands, never silent corruption.
    """
    if guard is None and not exact and not _fused(plan.filters):
        # The record prices the resolved block list whatever order the
        # host computes the bits in: run the band schedule.
        band_schedule(
            [f.pattern for f in plan.filters], global_view(plan.source),
            [global_view(out) for out in plan.outs],
            {name: global_view(a) for name, a in plan.arrays.items()},
            plan.iterations,
        )
        blocks = BlockList(plan.filters, plan.subgrid, plan.iterations, depths)
        return _record(plan, blocks, False, [None] * len(depths), None)
    ones = tuple(1 for _ in depths)
    rungs = [("exact", ones)] if exact else [("fast", ones), ("exact", ones)]
    if depths != ones:
        rungs.insert(0, ("blocked", depths))
    if guard is None:
        del rungs[1:]
    else:
        machine = plan.machine
        guard.attach_machine(machine)
        if machine.has_spares and guard.genesis is None:
            stacks = dict(machine.storage.distinct())
            names = list(stacks)
            # A staged source is saved by name; a stored one, or a plane
            # view of a stored volume, is saved with its stack.
            if not any(
                np.may_share_memory(stack, plan.source) for stack in stacks.values()
            ):
                names.append(plan.source_name)
            guard.genesis = machine.storage.checkpoint(names)
            guard.charge_checkpoint(machine.migration_words())
    for index, (rung, rung_depths) in enumerate(rungs):
        blocks = BlockList(
            plan.filters, plan.subgrid, plan.iterations, rung_depths
        )
        try:
            measured = _Loop(plan, blocks, rung == "exact", guard).run()
            return _record(plan, blocks, rung == "exact", measured, guard)
        except (NoSpareError, LinkDownError):
            # Hardware is gone and no spare capacity remains: stepping
            # down a rung cannot help, and limping on would corrupt.
            raise
        except FaultError:
            if index == len(rungs) - 1:
                raise
            guard.reclaim_rung()
            guard.note_degradation(f"{rung}->{rungs[index + 1][0]}")
    raise AssertionError("unreachable: the last rung returns or raises")


class _Loop:
    """One rung: one block list run once, fast or exact, guarded or not.

    It walks the list (:class:`~repro.runtime.blocking.BlockList`)
    iteration by iteration: each pass is one machine pass
    (:meth:`_exchange`), then one block per member (:meth:`_block`).  A
    filter whose block output bit-equals its input -- a fixed point;
    NaNs compare unequal -- stops computing, and its remaining blocks
    are charged at their price.

    Under guard every exchange is checksummed and retried by the
    exchange itself, and a fault in a block climbs three rungs:

    1. the block re-runs from its intact input (a deeper block
       exchanges again first), up to ``policy.max_retries`` times;
    2. the run rolls back to its last checkpoint of the result slabs
       (:meth:`~repro.runtime.blocking.BlockList.checkpoints`), or to
       the untouched source, and replays, up to ``policy.max_replays``
       times per run;
    3. the ladder steps down a rung (:func:`_run_ladder`).

    A dead node is remapped onto a spare, its tile restored from the
    genesis checkpoint, and the run rewound the same way.  With ABFT
    (fast rungs), the slabs an iteration wrote are sealed, the injector
    gets its SDC window once any due checkpoint is taken, and each slab
    is verified and forward-corrected before anything reads it; multi-
    cell damage rolls back like a failed block.  Iterations below the
    replay high-water mark were charged once, so their re-runs land in
    the replay buckets.
    """

    def __init__(
        self,
        plan: _Plan,
        blocks: BlockList,
        exact: bool,
        guard: Optional[FaultGuard],
    ) -> None:
        self.plan = plan
        self.blocks = blocks
        self.exact = exact
        self.guard = guard
        self.measured: List[Optional[int]] = [None] * len(plan.filters)
        #: Filters at a fixed point, and the iteration it begins at.
        self.fixed: Dict[int, int] = {}
        #: Coefficient deep halos by (group, name, width), while intact.
        self.coeffs: Dict[Tuple[int, str, int], np.ndarray] = {}
        #: Coefficient halos charged canonically; exchanging one again
        #: (after a node death) is a replay.
        self.charged: set = set()
        #: The last checkpoint, as (iteration, copies of the result slabs).
        self.checkpoint = None
        self.replays = 0
        self.high = 0

    def run(self) -> List[Optional[int]]:
        """Run the list; returns the exact cycle count of each filter's
        pass (None in fast mode)."""
        plan, guard = self.plan, self.guard
        starting: List[List[Pass]] = [[] for _ in range(plan.iterations)]
        for p in self.blocks.passes:
            starting[p.start].append(p)
        abft = guard is not None and guard.policy.abft and not self.exact
        marks = frozenset()
        if guard is not None:
            marks = self.blocks.checkpoints(guard.policy.checkpoint_interval)
        k = 0
        while k < plan.iterations:
            # Canonical charges of this iteration, undone (moved into the
            # replay buckets) if it rolls back: its re-run charges them.
            ledger: list = []
            if guard is not None:
                guard.replaying = k < self.high
            try:
                done, failed = self._iteration(starting[k], ledger)
            except NodeDeadError as dead:
                # A participant's memory is gone, detected before that
                # exchange moved or charged anything: remap the logical
                # coordinate onto a spare, restore the migrated tile from
                # the genesis checkpoint, rewind the iterate and replay.
                # Raises NoSpareError when no spare remains.
                guard.replaying = False
                guard.recover_dead_node(dead.coord)
                self.coeffs.clear()
                k = self._rewind(k, 0, ledger)
                continue
            if guard is not None:
                guard.replaying = False
            if failed is not None:
                # Re-running the block alone did not clear it: roll back
                # and replay the iterations since, this one included.
                error, steps = failed
                if self.replays >= guard.policy.max_replays:
                    raise error
                self.replays += 1
                k = self._rewind(k, steps, ledger)
                continue
            k += 1
            if guard is None:
                continue
            seals = []
            if abft:
                for fi in done:
                    seals.append(seal_checksums(plan.outs[fi]))
                    guard.charge_abft(plan.slab_words(), seals=1)
            if k in marks:
                # Charged whatever the data; once every filter is fixed,
                # nothing changes or rolls back, so the copy is skipped.
                if len(self.fixed) < len(plan.filters):
                    self.checkpoint = (k, [out.copy() for out in plan.outs])
                guard.charge_checkpoint(len(plan.outs) * plan.slab_words())
            if not (abft and done):
                continue
            # The SDC window: the checkpoint (if due) is already taken, so
            # rollback state is always clean; the strike lands in the
            # resident result tiles where no message checksum looks.
            guard.inject_sdc(
                [
                    (f"result stack {plan.out_names[fi]!r}", plan.outs[fi])
                    for fi in done
                ]
            )
            try:
                for fi, seal in zip(done, seals):
                    guard.charge_abft(plan.slab_words(), verifies=1)
                    corrected = verify_and_correct(
                        plan.outs[fi],
                        seal,
                        site=f"abft iteration {k - 1} result",
                        guard=guard,
                    )
                    if corrected:
                        guard.charge_sdc_correction(corrected)
            except SdcUncorrectableError:
                # Forward correction is out; roll back like a failed
                # block.  This iteration's charges stand; every re-run
                # below the new high-water mark lands in the replay
                # buckets.
                if self.replays >= guard.policy.max_replays:
                    raise
                self.replays += 1
                k = self._rewind(k, 0, ())
        return self.measured

    def _iteration(self, passes: List[Pass], ledger: list):
        """Run the passes one iteration starts; returns the filters whose
        blocks ran, in order, and a block's error and steps if its
        retries ran out.  Fixed filters' blocks, and a pass of only
        those, are charged without running (once: not on a replay)."""
        guard = self.guard
        canonical = guard is not None and not guard.replaying
        done = []
        for p in passes:
            self._coefficients(p.group)
            views = None
            if any(fi not in self.fixed for fi, _ in p.blocks):
                views = self._exchange(p, ledger)
            elif canonical:
                messages = p.messages(self.plan.batch)
                guard.charge_skipped_exchanges(messages, p.cost.cycles)
                ledger += [lambda c=p.cost.cycles: guard.reclaim_exchange(c)] * messages
            for j, (fi, steps) in enumerate(p.blocks):
                if fi not in self.fixed:
                    error = self._block(p, fi, steps, views[j], ledger)
                    if error is not None:
                        return sorted(done), (error, steps)
                    done.append(fi)
                elif canonical:
                    self._charge(fi, steps, ledger)
        return sorted(done), None

    def _coefficients(self, gi: int) -> None:
        """Deep-exchange group ``gi``'s coefficient halos unless they
        are intact: once per (name, width), for the whole batch, since a
        deeper block's halo ring needs its neighbors' coefficients to
        reproduce their bits."""
        plan, guard = self.plan, self.guard
        for group, fi, name, width in self.blocks.coefficients:
            key = (group, name, width)
            if group != gi or key in self.coeffs:
                continue
            buf = plan.machine.storage.scratch(
                f"{name}__deep{width}__{group}", plan.padded(width)
            )
            if guard is not None:
                replaying, guard.replaying = guard.replaying, key in self.charged
                guard.role = "coeff"
            try:
                self._exchange_into(
                    plan.arrays[name], buf, plan.filters[fi].pattern, width,
                    True, 1, f"deep exchange (depth {self.blocks.depths[fi]})",
                )
            finally:
                if guard is not None:
                    guard.role = "source"
                    guard.replaying = replaying
            self.charged.add(key)
            self.coeffs[key] = buf

    def _exchange_into(
        self, stack, destination, pattern, width, composed, copies, site
    ) -> CommStats:
        plan = self.plan
        if composed:
            return exchange_halo_group(
                stack, destination, pattern, plan.subgrid, plan.params,
                width, copies=copies, guard=self.guard, site=site,
            )
        return exchange_halo_batch(
            stack, destination, pattern, plan.subgrid, plan.params,
            copies=copies, guard=self.guard, site=site,
        )

    def _exchange(self, p: Pass, ledger: list) -> List[np.ndarray]:
        """Pass ``p``'s machine pass; returns each block's padded input.
        A first pass fills the group's halo stack from the source (a
        deeper block copies its centered window into its ping buffer); a
        later one gathers its members' result slabs (a copy the exchange
        verifies against), or exchanges one slab into the halo stack or,
        for a deeper block, its ping window."""
        plan, guard = self.plan, self.guard
        members = [fi for fi, _ in p.blocks]
        deepest = max(steps for _, steps in p.blocks)
        name = plan.halo_name(p.group)
        if p.start and len(members) > 1:
            stack = np.stack([plan.outs[fi] for fi in members], axis=-5)
            name = f"{name}__gather__"
            gathered = plan.machine.storage.scratch(
                name, plan.padded(p.width), stack.shape[:-4]
            )
            destination = lambda: gathered
        elif p.start and deepest > 1:
            stack = plan.outs[members[0]]
            ping = self._deep(p.group, members[0], deepest)[0]
            destination = lambda: ping
        else:
            stack = plan.outs[members[0]] if p.start else plan.source
            shape = plan.padded(p.width)
            lead = plan.lead
            if plan.reach:  # a rank-3 call: depth halo on the lead axis
                lead = (lead[0] + 2 * plan.reach,) + lead[1:]

            def destination() -> np.ndarray:
                # The halo stack, (re)allocated inside the exchange's
                # hard-fault window, so a node that dies there never
                # held it; the exchange fills its middle planes.
                found = plan.machine.storage.get(name)
                if found is None or found.shape != lead + stack.shape[-4:-2] + shape:
                    found = plan.machine.storage.allocate(name, shape, lead)
                if plan.reach:
                    return found[plan.reach : plan.reach + plan.lead[0]]
                return found
        copies = math.prod(stack.shape[:-4])
        stats = self._exchange_into(
            stack, destination, plan.filters[members[0]].pattern, p.width,
            p.composed, copies,
            f"deep exchange (depth {deepest})" if deepest > 1
            else f"exchange into {name!r}",
        )
        if guard is not None and not guard.replaying:
            ledger += [lambda c=stats.cycles: guard.reclaim_exchange(c)] * copies
        padded = destination()
        if plan.reach:
            plan.depth_halo(plan.machine.storage.get(name), p.width)
        if padded.ndim > plan.source.ndim:
            return [padded[..., j, :, :, :, :] for j in range(len(members))]
        for fi, steps in p.blocks:
            if steps > 1 and not p.start:
                window = plan.window(p.width, steps * self.blocks.comms[fi].pad)
                self._deep(p.group, fi, steps)[0][...] = padded[window]
        return [padded] * len(members)

    def _deep(self, gi: int, fi: int, steps: int):
        """Filter ``fi``'s ping-pong pair and coefficient halos, windowed
        for a ``steps``-iteration block: they hold a full block's halo,
        and a tail block centers a shallower window in them so the
        interior stays aligned."""
        plan = self.plan
        pad = self.blocks.comms[fi].pad
        full = self.blocks.depths[fi] * pad
        window = plan.window(full, steps * pad)
        ping, pong = plan.machine.storage.pingpong(
            f"{plan.halo_name(gi)}{fi}", plan.padded(full), plan.lead
        )
        coeffs = {
            name: self.coeffs[(gi, name, full)][window]
            for name in array_coefficient_names(plan.filters[fi].pattern)
        }
        return ping[window], pong[window], coeffs

    def _price(self, fi: int, steps: int) -> Tuple[int, int]:
        """``(cycles, half_strips)`` of filter ``fi``'s block over every
        grid, at :func:`~repro.runtime.blocking.block_compute`'s price."""
        plan = self.plan
        cycles, strips = block_compute(
            plan.filters[fi], plan.subgrid, steps,
            self.measured[fi] or plan.schedules[fi].compute_cycles(plan.params),
        )
        return plan.batch * cycles, plan.batch * strips

    def _charge(self, fi: int, steps: int, ledger: list) -> None:
        """Charge filter ``fi``'s block at its price; a canonical charge
        is undone if the iteration rolls back."""
        guard = self.guard
        cycles, strips = self._price(fi, steps)
        guard.charge_compute(cycles, strips)
        if not guard.replaying:
            ledger.append(lambda: guard.reclaim_compute(cycles, strips))

    def _block(
        self, p: Pass, fi: int, steps: int, padded: np.ndarray, ledger: list
    ) -> Optional[FaultError]:
        """Filter ``fi``'s block, every attempt charged at its price;
        returns the error when it still fails after
        ``policy.max_retries`` re-runs, and notes a fixed point."""
        plan, guard = self.plan, self.guard
        attempt = 0
        while True:
            attempt += 1
            if attempt > 1 and steps > 1:
                # A deeper block exchanges its own input again: a replay.
                replaying, guard.replaying = guard.replaying, True
                self._exchange_into(
                    plan.outs[fi] if p.start else plan.source,
                    self._deep(p.group, fi, steps)[0],
                    plan.filters[fi].pattern,
                    steps * self.blocks.comms[fi].pad,
                    True, plan.batch, f"deep exchange (depth {steps})",
                )
                guard.replaying = replaying
            try:
                fixed = self._compute(p, fi, steps, padded)
            except FaultError as error:
                # guard is not None here: only its checks raise.
                guard.charge_compute(*self._price(fi, steps), recovery=True)
                if attempt > guard.policy.max_retries:
                    return error
                guard.note_recompute()
                continue
            if guard is not None:
                self._charge(fi, steps, ledger)
            if fixed and p.start + steps < plan.iterations:
                self.fixed[fi] = p.start
            return None

    def _compute(
        self, p: Pass, fi: int, steps: int, padded: np.ndarray
    ) -> bool:
        """One attempt at filter ``fi``'s block; returns whether its
        output equals its input.  Under guard a fast one-step pass may be
        poisoned and is verified finite, and a deeper block runs
        parity-sealed (see :func:`machine_execute_blocked`)."""
        plan, guard = self.plan, self.guard
        pattern = plan.filters[fi].pattern
        out = plan.outs[fi]
        rows, cols = plan.subgrid
        if steps > 1:
            ping, pong, coeffs = self._deep(p.group, fi, steps)
            pad = self.blocks.comms[fi].pad
            final, fixed = machine_execute_blocked(
                pattern, ping=ping, pong=pong, deep_coeffs=coeffs,
                subgrid_shape=plan.subgrid, pad=pad, steps=steps,
                guard=guard,
            )
            deep = steps * pad
            out[...] = final[..., deep : deep + rows, deep : deep + cols]
            return fixed
        width = p.width
        if self.exact:
            source, result = plan.halo_name(p.group), plan.out_names[fi]
            self.measured[fi] = machine_execute_exact(
                plan.filters[fi], plan.schedules[fi],
                {**plan.arrays, source: padded, result: out},
                source_buffer=source, result_buffer=result, halo=width,
            )
        else:
            machine_execute_fast_stack(
                pattern, padded=padded, coeff_stacks=plan.arrays,
                halo=width, out=out,
            )
            if guard is not None:
                guard.inject_poison(out)
                guard.verify_finite(
                    out, f"fast executor result {plan.out_names[fi]!r}"
                )
        return p.start + 1 < plan.iterations and values_equal(
            out, padded[..., width : width + rows, width : width + cols]
        )

    def _rewind(self, k: int, lost: int, ledger) -> int:
        """Undo iteration ``k``'s canonical charges (``ledger``), restore
        the last checkpoint (or fall back to the untouched source), note
        the rollback of the ``k - resume + lost`` iterations it discards,
        and return the iteration to resume at."""
        for undo in ledger:
            undo()
        resume = 0
        if self.checkpoint is not None:
            resume, saved = self.checkpoint
            for out, copy in zip(self.plan.outs, saved):
                out[...] = copy
        self.guard.note_rollback(k - resume + lost)
        self.high = max(self.high, k)
        self.fixed = {fi: at for fi, at in self.fixed.items() if at < resume}
        return resume


def _record(
    plan: _Plan,
    blocks: BlockList,
    exact: bool,
    measured: List[Optional[int]],
    guard: Optional[FaultGuard],
) -> StencilRun:
    """The run record: per-filter attribution, host calls and the closed
    form (:meth:`~repro.runtime.blocking.BlockList.closed_form`); totals
    in closed form too, unless a guard tallied them."""
    rows, cols = plan.subgrid
    batch, iterations = plan.batch, plan.iterations
    cycles = [
        measured[fi] or schedule.compute_cycles(plan.params)
        for fi, schedule in enumerate(plan.schedules)
    ]
    closed, host_calls, shares = blocks.closed_form(batch, cycles)
    totals = closed._asdict()
    if guard is not None:
        totals = dict(
            num_exchanges=guard.exchanges,
            coeff_exchanges=guard.coeff_exchanges,
            total_comm_cycles=guard.comm_cycles,
            total_compute_cycles=guard.compute_cycles,
            total_half_strips=guard.half_strips,
        )
    per_filter = tuple(
        FilterCost(
            name=compiled.pattern.name or f"filter{fi}",
            index=fi,
            block_depth=blocks.depths[fi],
            comm=blocks.comms[fi],
            pass_cycles=cycles[fi],
            pass_half_strips=plan.schedules[fi].num_half_strips,
            useful_flops=(
                batch
                * iterations
                * rows
                * cols
                * plan.machine.num_nodes
                * compiled.pattern.useful_flops_per_point()
            ),
            **shares[fi]._asdict(),
        )
        for fi, compiled in enumerate(plan.filters)
    )
    return StencilRun(
        filters=plan.filters,
        machine=plan.machine,
        result=plan.result,
        batch=batch,
        iterations=iterations,
        exact=exact,
        block_depths=blocks.depths,
        host_calls=host_calls,
        per_filter=per_filter,
        fault_stats=guard.stats if guard is not None else FaultStats(),
        closed_form=closed,
        **totals,
    )


def _positive_int(value) -> bool:
    integral = isinstance(value, numbers.Integral)
    return integral and not isinstance(value, bool) and value >= 1


def shape_mismatch(label: str, got, want) -> str:
    """A mismatch message naming the first offending axis and the
    expected extent there (instead of letting numpy raise a deep
    broadcast error from inside the tap loop)."""
    got = tuple(int(n) for n in got)
    want = tuple(int(n) for n in want)
    if len(got) != len(want):
        return (
            f"{label} shape {got} (rank {len(got)}) != "
            f"expected shape {want} (rank {len(want)})"
        )
    for axis, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return (
                f"{label} shape {got}: axis {axis} has extent {g}, "
                f"expected extent {w} (full expected shape {want})"
            )
    return f"{label} shape {got} != expected shape {want}"


def _check_shape(stack: np.ndarray, want: Tuple[int, ...], label: str) -> None:
    """On one machine a stack's shape fixes the global shape, since
    subgrids tile the global array evenly."""
    if stack.shape != want:
        axes = "node-grid and subgrid" if len(want) == 4 else "stack"
        raise ExecutionSetupError(
            shape_mismatch(f"{label} {axes}", stack.shape, want)
        )


def check_call(
    filters: Sequence[CompiledStencil],
    sources,
    coefficients: Optional[Dict[str, CMArray]],
    result,
    *,
    door: str,
    iterations,
    block_depth,
    check_finite: bool,
) -> str:
    """The one check of a stencil call, made before anything is
    allocated, staged or bound; returns the name of the result.

    ``door`` names the entry point.  A ``"solo"`` call takes a
    :class:`CMArray` source and result; a ``"batch"`` one a
    one-lead-axis :class:`CMBatch`, a :class:`CMArray3D` (its planes the
    batch) or a list of :class:`CMArray` on one machine with one global
    shape, and a ``(B, F)``-lead :class:`CMBatch` result; a
    ``"volume"`` (rank-3) one a :class:`CMArray3D` source and result of
    one shape, whose fused extra terms are depth taps.  Every array a
    filter reads is passed in ``coefficients``, on the sources' machine
    with their global shape (rank-3 arrays on the volume door), or
    resident under its statement name with their stack shape.  Aliasing
    is checked by name for every filter: RS601 and RS602 raise, the
    RS603 in-place update passes.  Raises only
    :class:`ExecutionSetupError` (an :class:`AliasingError`, or with
    ``check_finite`` a :class:`NonFiniteInputError`).
    """
    if not isinstance(filters, (list, tuple)) or not filters:
        raise ExecutionSetupError(
            "at least one compiled filter is required, in a list"
        )
    params = getattr(filters[0], "params", None)
    for fi, compiled in enumerate(filters):
        if params is None or getattr(compiled, "params", None) != params:
            raise ExecutionSetupError(
                f"filter {fi} is not a stencil compiled for filter 0's "
                f"machine parameters; a call shares one configuration"
            )
    if not _positive_int(iterations):
        raise ExecutionSetupError(
            f"iterations must be a positive int, got {iterations!r}"
        )
    if block_depth != "auto" and not _positive_int(block_depth):
        raise ExecutionSetupError(
            f"block_depth must be a positive int or 'auto', got {block_depth!r}"
        )

    volume = door == "volume"
    if door == "solo":
        entries = [sources] if isinstance(sources, CMArray) else []
    elif volume:
        entries = [sources] if isinstance(sources, CMArray3D) else []
    elif isinstance(sources, (CMBatch, CMArray3D)):
        entries = [sources] if len(sources.lead_shape) == 1 else []
    elif isinstance(sources, (list, tuple)) and all(
        isinstance(array, CMArray) for array in sources
    ):
        entries = list(sources)
    else:
        entries = []
    if not entries:
        wanted = {
            "solo": "the source must be one CMArray",
            "volume": "the source must be one CMArray3D",
            "batch": "sources must be a CMBatch with one lead axis, a "
            "CMArray3D or a non-empty list of CMArrays",
        }[door]
        raise ExecutionSetupError(f"{wanted}, got {type(sources).__name__}")
    machine, subgrid = entries[0].machine, entries[0].subgrid_shape
    grid = tuple(machine.shape) + subgrid
    grids = []  # (label, stack) of every source grid
    for i, array in enumerate(entries):
        if array.machine is not machine:
            raise ExecutionSetupError(
                f"batch source {i} ({array.name!r}) lives on a different "
                f"machine"
            )
        axes = array.lead_shape
        stack = array.stacked
        _check_shape(stack, axes + grid, f"source {array.name!r}")
        if axes:
            grids += [(f"{array.name}[{b}]", stack[b]) for b in range(axes[0])]
        else:
            grids.append((array.name, stack))

    # A rank-3 call reads rank-3 arrays: depth leads every stack.
    lead = entries[0].lead_shape if volume else ()
    array_type = CMArray3D if volume else CMArray
    coefficients = coefficients or {}
    inputs: Dict[str, str] = {}  # statement name -> the stack read there
    for statement, array in coefficients.items():
        if not isinstance(array, array_type) or array.machine is not machine:
            raise ExecutionSetupError(
                f"coefficient {statement!r} is not a {array_type.__name__} "
                f"on the sources' machine"
            )
        _check_shape(array.stacked, lead + grid, f"coefficient {statement!r}")
        inputs[statement] = array.name
    for fi, compiled in enumerate(filters):
        pattern = compiled.pattern
        label = pattern.name or f"filter {fi}"
        pad = pattern.border_widths().max_width
        if pad > min(subgrid):
            raise ExecutionSetupError(
                f"halo width {pad} of {label} exceeds the subgrid extent "
                f"{subgrid}; the exchange primitive reaches only "
                f"immediate neighbors"
            )
        extra = {term.source for term in pattern.extra_terms}
        for name in kernel_array_names(pattern):
            if volume and name in extra:
                if not depth_offset(name):
                    raise ExecutionSetupError(
                        f"fused extra source {name!r} of {label} is not a "
                        f"depth tap; a rank-3 call's extra terms read "
                        f"planes of its source (compile_3d)"
                    )
                continue
            if name in inputs:
                continue
            kind = "fused extra-source" if name in extra else "coefficient"
            stack = machine.storage.get(name)
            if stack is None:
                raise ExecutionSetupError(
                    f"missing {kind} array {name!r} read by {label}: pass "
                    f"it in coefficients or create it on the sources' "
                    f"machine"
                )
            _check_shape(stack, lead + grid, f"resident {kind} {name!r}")
            inputs[name] = name

    result_lead = (len(grids), len(filters)) if door == "batch" else lead
    result_type = {"solo": CMArray, "volume": CMArray3D, "batch": CMBatch}[door]
    if result is None:
        result_name = filters[0].pattern.result + (
            "__batch__" if door == "batch" else ""
        )
    elif isinstance(result, str):
        result_name = result
    elif isinstance(result, result_type) and result.machine is machine:
        _check_shape(result.stacked, result_lead + grid, f"result {result.name!r}")
        result_name = result.name
    else:
        raise ExecutionSetupError(
            f"result must be None, a name or a {result_type.__name__} on "
            f"the sources' machine, got {type(result).__name__}"
        )

    # One check per filter covers every source name: passing the
    # result's own name when it is one of them makes RS601 fire.
    names = [array.name for array in entries]
    diagnostics = []
    for compiled in filters:
        diagnostics += check_aliasing(
            compiled.pattern,
            result_name=result_name,
            source_name=result_name if result_name in names else names[0],
            coefficient_arrays={s: a.name for s, a in coefficients.items()},
        )
    if has_errors(diagnostics):
        raise AliasingError(diagnostics)
    if (result is None or isinstance(result, str)) and (
        result_name in inputs.values()
    ):
        # By name, a door allocates the result afresh: the RS603
        # in-place update needs the array itself.
        raise ExecutionSetupError(
            f"result {result_name!r} names an array the call reads; "
            f"allocating it would zero that input first"
        )

    if check_finite:
        for b, (label, stack) in enumerate(grids):
            if not np.isfinite(stack).all():
                where = repr(label) if door == "solo" else f"entry {b} ({label!r})"
                raise NonFiniteInputError(
                    f"source {where} contains NaN/Inf (check_finite=True)"
                )
        for name in dict.fromkeys(inputs.values()):
            if not np.isfinite(machine.storage.get(name)).all():
                raise NonFiniteInputError(
                    f"input array {name!r} contains NaN/Inf "
                    "(check_finite=True)"
                )
    return result_name


def apply_stencil_batch(
    filters: Sequence[CompiledStencil],
    sources: Union[CMBatch, Sequence[CMArray]],
    coefficients: Optional[Dict[str, CMArray]] = None,
    result: Union[CMBatch, str, None] = None,
    *,
    iterations: int = 1,
    exact: bool = False,
    block_depth: Union[int, str] = 1,
    check_finite: bool = False,
    faults: Optional[FaultInjector] = None,
    resilience: Optional[ResiliencePolicy] = None,
    tenant: Optional[str] = None,
) -> StencilRun:
    """Apply ``F`` compiled filters to ``B`` grids in one machine-wide
    batched call.

    Args:
        filters: the compiled stencils to apply, all sharing machine
            parameters.  Fused extra sources are read by name, as 4-d
            arrays broadcast across the batch.
        sources: a ``(B,)``-lead :class:`CMBatch`, a
            :class:`~repro.runtime.cm_array.CMArray3D` (its ``B`` planes,
            read in place), or a list of
            :class:`~repro.runtime.cm_array.CMArray` on the same machine
            and global shape (staged into a batched scratch stack).
        coefficients: coefficient arrays by statement name, shared by
            every filter and batch entry (unsupplied names fall back to
            resident machine arrays).
        result: a ``(B, F)``-lead :class:`CMBatch`, its name, or None
            to create one named ``<result>__batch__``.
        iterations, exact, block_depth, check_finite, faults,
            resilience, tenant: as for
            :func:`~repro.runtime.stencil_op.apply_stencil`; an int
            ``block_depth`` is clamped per filter, ``"auto"`` picks each
            filter's modeled optimum if the set prices lower, and a guarded batch
            walks the same recovery ladder (spare remaps included) as a
            solo call.

    Returns:
        a :class:`StencilRun`; entry ``[b, f]`` of its result is
        bit-identical to ``apply_stencil(filters[f], sources[b], ...)``.

    Raises :class:`ExecutionSetupError` from :func:`check_call`, before
    anything is allocated or staged.
    """
    name = check_call(
        filters, sources, coefficients, result, door="batch",
        iterations=iterations, block_depth=block_depth,
        check_finite=check_finite,
    )
    filters = tuple(filters)
    if isinstance(sources, (CMBatch, CMArray3D)):
        source_name, source, first = sources.name, sources.stacked, sources
    else:
        source_name, first = "__batch_source__", sources[0]
        source = first.machine.storage.scratch(
            source_name, first.subgrid_shape, (len(sources),)
        )
        for b, array in enumerate(sources):
            source[b] = array.stacked
    if not isinstance(result, CMBatch):
        result = CMBatch(
            name, first.machine, (len(source), len(filters)),
            first.decomposition.global_shape,
        )
    return run_stencil(
        filters,
        source_name,
        source,
        result,
        tuple(result.stacked[:, fi] for fi in range(len(filters))),
        tuple(f"{result.name}[:, {fi}]" for fi in range(len(filters))),
        dict(coefficients or {}),
        iterations=iterations,
        exact=exact,
        block_depth=block_depth,
        faults=faults,
        resilience=resilience,
        tenant=tenant,
    )
