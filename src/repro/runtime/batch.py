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
and the same tap kernel serve any leading shape.  Filters are grouped
by boundary treatment ``(row mode, col mode, fill value)``; each
group's first exchange is ONE machine pass of ``B`` messages serving
every member filter, instead of the ``B x F`` messages a loop of solo
calls would send.  Groups whose members share a footprint (same pad,
same corner reach) exchange at exactly that footprint; mixed-footprint
groups exchange once at the widest member's pad with composed corners,
and each filter reads its own centered window -- bit-identical to that
filter's own exchange.

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
recovery path: both run these loops, and shared halos are provably
bit-identical to per-filter halos (centered sub-windows and composed
corners reproduce the solo exchange's bytes; corner-skipping filters
never read corner cells).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..compiler import driver
from ..compiler.plan import CompiledStencil
from ..machine.machine import CM2
from ..machine.params import MachineParams
from ..stencil.offsets import BoundaryMode
from ..stencil.pattern import StencilPattern
from .blocking import (
    array_coefficient_names,
    block_compute_cycles,
    block_steps,
    depth_cap,
)
from .abft import seal_checksums, verify_and_correct
from .cm_array import CMArray, ExecutionSetupError, intact_stack
from .decomposition import Decomposition
from .executor import (
    kernel_array_names,
    machine_execute_blocked,
    machine_execute_fast_stack,
    node_execute_exact,
    shape_mismatch,
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
    deep_exchange_cost,
    deep_width_cost,
    exchange_cost,
    exchange_halo_batch,
    exchange_halo_deep,
    # Not called here: perfbench's tracer wraps the engine's exchanges
    # by this module's attributes and still looks this one up.
    exchange_halo_deep_width,
    exchange_halo_group,
    halo_buffer_name,
)
from .strips import StripSchedule


class CMBatch:
    """A batch of distributed arrays stored as one machine-wide stack.

    The batched counterpart of :class:`~repro.runtime.cm_array.CMArray`:
    ``lead_shape`` axes (batch entries, and for results a filter axis)
    sit ahead of the node grid, so one stacked buffer of shape
    ``lead_shape + (grid_rows, grid_cols, rows, cols)`` holds every
    entry and whole-machine operations (halo exchange, the stacked fast
    executor) serve all of them in one pass.  There are no per-node
    views -- the batch axes are a sequencer-side addressing construct;
    exact mode stages each entry's tiles as node-memory views.
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
        self.name = name
        self.machine = machine
        self.lead_shape = lead_shape
        self.decomposition = Decomposition(tuple(global_shape), machine)
        self._stacked = machine.alloc_batch_stacked(
            name, lead_shape, self.decomposition.subgrid_shape
        )

    @property
    def global_shape(self) -> Tuple[int, int]:
        return self.decomposition.global_shape

    @property
    def subgrid_shape(self) -> Tuple[int, int]:
        return self.decomposition.subgrid_shape

    @property
    def stacked(self) -> np.ndarray:
        """The whole-machine ``lead_shape + (grid_rows, grid_cols,
        rows, cols)`` stack."""
        return self._stacked

    @classmethod
    def from_numpy(cls, name: str, machine: CM2, array: np.ndarray) -> "CMBatch":
        """Create a batch from host data: the last two axes are the
        global array extents, everything ahead of them is the lead
        shape (scatter)."""
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

    def set(self, array: np.ndarray) -> None:
        """Scatter host data into every entry's node subgrids."""
        array = np.asarray(array, dtype=np.float32)
        want = self.lead_shape + self.global_shape
        if tuple(array.shape) != want:
            raise ValueError(
                f"array shape {array.shape} does not match the batch "
                f"shape {want}"
            )
        grid_rows, grid_cols = self.machine.shape
        rows, cols = self.subgrid_shape
        self._stacked[...] = array.reshape(
            self.lead_shape + (grid_rows, rows, grid_cols, cols)
        ).swapaxes(-3, -2)

    def fill(self, value: float) -> None:
        self._stacked[...] = np.float32(value)

    def to_numpy(self) -> np.ndarray:
        """Gather every entry into one host array of shape
        ``lead_shape + global_shape``."""
        return self._stacked.swapaxes(-3, -2).reshape(
            self.lead_shape + self.global_shape
        )

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
    guard's tally, which equals the fault-free closed form plus the
    :attr:`fault_stats` recovery buckets.

    Attributes:
        filters: the compiled filters, in application order.
        machine: the machine the run used.
        result: the result -- a :class:`~repro.runtime.cm_array.CMArray`
            for a solo call, else a ``(batch, filter)``-lead
            :class:`CMBatch` whose entry ``[b, f]`` is filter ``f``
            applied to grid ``b``.
        batch: number of independent source grids ``B``.
        iterations: iterations applied (every filter, every grid).
        exact: whether the cycle-stepped datapath ran.
        block_depths: per-filter temporal block depth (1 = unblocked).
        num_exchanges: source halo messages charged over the whole run
            (a shared group pass counts ``batch`` messages -- the halos
            really move -- but rides on one machine pass).
        coeff_exchanges: coefficient deep exchanges (blocked runs);
            charged once per (coefficient, depth), NOT per batch entry.
        total_comm_cycles: all exchange cycles.
        total_compute_cycles: all node compute cycles (scaled by
            ``batch``).
        total_half_strips: microcode invocations *executed* by the
            sequencer (scaled by ``batch``).
        host_calls: run-time-library invocations the host made: one per
            group machine pass, one per later temporal block.
        per_filter: one :class:`FilterCost` per filter.
        fault_stats: chaos-run fault/retry/recovery accounting; all zero
            on an unguarded run.
    """

    filters: Tuple[CompiledStencil, ...]
    machine: CM2
    result: Union[CMArray, CMBatch]
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
        """Front-end time: the per-call fixed cost for every library
        invocation plus the issue cost of every issued half strip."""
        return (
            self.host_calls * self.params.host_fixed_s
            + self.host_half_strips * self.params.host_halfstrip_s
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
        return (
            self.params.seconds(
                self.total_compute_cycles + self.total_comm_cycles
            )
            + self.host_seconds_total
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


@dataclass(frozen=True)
class _Group:
    """Filters sharing one halo exchange: same boundary treatment.

    ``uniform`` groups (every member the same pad AND the same corner
    reach) exchange at exactly that footprint, honoring the corner-step
    skip; mixed groups exchange once at ``width`` (the widest member's
    pad) with composed corners, and each member reads its own centered
    sub-window.
    """

    indices: Tuple[int, ...]
    uniform: bool
    width: int
    representative: StencilPattern


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


def _filter_groups(
    patterns: Sequence[StencilPattern], comms: Sequence[CommStats]
) -> List[_Group]:
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
        groups.append(
            _Group(
                indices=tuple(indices),
                uniform=len(footprints) == 1,
                width=max(comms[i].pad for i in indices),
                representative=patterns[indices[0]],
            )
        )
    return groups


@contextmanager
def _coefficient_bindings(machine: CM2, coefficients: Dict[str, CMArray]):
    """Point statement coefficient names at the caller's arrays, scoped
    to one call.

    The compiled plans stream coefficients by *statement* name; when a
    caller passes arrays stored under different names (e.g. through the
    subroutine-call interface), the statement names are aliased to them
    -- run-time base addresses, as the sequencer would take them.  The
    previous bindings (if any) are restored on exit, so repeated calls
    with different arrays never see each other's aliases and node memory
    does not accumulate stale names.
    """
    saved = []
    for statement_name, array in coefficients.items():
        if array.name == statement_name:
            continue
        previous_stack = machine.storage.get(statement_name)
        previous_views = [
            node.memory.view(statement_name) for node in machine.nodes()
        ]
        machine.alias_stacked(statement_name, array.name)
        saved.append((statement_name, previous_stack, previous_views))
    try:
        yield
    finally:
        for statement_name, previous_stack, previous_views in reversed(saved):
            if previous_stack is None:
                machine.storage.free(statement_name)
            else:
                machine.storage.bind(statement_name, previous_stack)
            for node, view in zip(machine.nodes(), previous_views):
                if view is None:
                    node.memory.free(statement_name)
                else:
                    node.memory.install_view(statement_name, view)


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
    """Validate the caller's ``block_depth`` and resolve it per filter.

    Exact mode, single calls, and filter sets with a fused extra term
    (the deep exchange does not manage extra sources) resolve every
    filter to depth 1.  An int is clamped per filter to what its pad
    and the subgrid support (1 for unblockable patterns); ``"auto"``
    prices each filter through the batch-aware cost model.
    """
    if block_depth == "auto":
        requested = None
    elif isinstance(block_depth, int) and not isinstance(block_depth, bool):
        if block_depth < 1:
            raise ValueError(
                f"block_depth must be a positive int or 'auto', "
                f"got {block_depth}"
            )
        requested = block_depth
    else:
        raise ValueError(
            f"block_depth must be a positive int or 'auto', got {block_depth!r}"
        )
    fused = any(getattr(f.pattern, "extra_terms", ()) for f in filters)
    if exact or iterations < 2 or fused or requested == 1:
        return tuple(1 for _ in filters)
    if requested is not None:
        return tuple(
            min(requested, depth_cap(f.pattern, subgrid_shape, iterations))
            for f in filters
        )
    return driver.select_batch_block_depths(
        filters, subgrid_shape, iterations, batch, machine=machine, tenant=tenant
    )


class _Plan:
    """What every loop of one call shares: the filters and groups, the
    source stack and its name, one result slab per filter, and the
    coefficient and extra-source stacks by statement name."""

    def __init__(
        self,
        filters: Tuple[CompiledStencil, ...],
        source_name: str,
        source: np.ndarray,
        result: Union[CMArray, CMBatch],
        outs: Tuple[np.ndarray, ...],
        out_names: Tuple[str, ...],
        iterations: int,
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
        self.comms = [
            exchange_cost(f.pattern, self.subgrid, self.params) for f in filters
        ]
        self.groups = _filter_groups([f.pattern for f in filters], self.comms)
        self.schedules = [StripSchedule.cached(f, self.subgrid) for f in filters]
        self.arrays: Dict[str, np.ndarray] = {}

    def halo_name(self, gi: int) -> str:
        """Group ``gi``'s halo stack: the first group's is the source's
        own halo buffer."""
        return halo_buffer_name(
            f"{self.source_name}__group{gi}" if gi else self.source_name
        )

    def padded(self, width: int) -> Tuple[int, int]:
        rows, cols = self.subgrid
        return (rows + 2 * width, cols + 2 * width)

    def group_cost(self, group: _Group) -> CommStats:
        """One copy's cost of the group's shallow exchange."""
        if group.uniform:
            return self.comms[group.indices[0]]
        return deep_width_cost(self.subgrid, self.params, group.width)

    def slab_words(self) -> int:
        """Words per node of one filter's result slab."""
        rows, cols = self.subgrid
        return self.batch * rows * cols


def run_stencil(
    filters: Tuple[CompiledStencil, ...],
    source_name: str,
    source: np.ndarray,
    result: Union[CMArray, CMBatch],
    outs: Tuple[np.ndarray, ...],
    out_names: Tuple[str, ...],
    coefficients: Dict[str, CMArray],
    *,
    iterations: int,
    exact: bool,
    block_depth: Union[int, str],
    faults: Optional[FaultInjector],
    resilience: Optional[ResiliencePolicy],
    abft: bool,
    tenant: Optional[str],
) -> StencilRun:
    """The engine behind both entry points, on validated arrays.

    ``source`` is the source stack (``source_name`` names it and its
    halo buffers), ``outs`` the result slab each filter writes (named
    ``out_names`` in fault sites and ABFT seals), both with the same
    leading axes.  Supplying ``faults`` or ``resilience`` (or ``abft``)
    runs the guarded recovery ladder; otherwise the blocked or
    unblocked loop runs once and the record is the closed form.
    """
    plan = _Plan(filters, source_name, source, result, outs, out_names, iterations)
    machine = plan.machine
    depths = _resolve_depths(
        filters, plan.subgrid, iterations, exact, block_depth, plan.batch,
        machine, tenant,
    )
    if abft:
        if resilience is None:
            resilience = ResiliencePolicy(abft=True)
        elif not resilience.abft:
            resilience = replace(resilience, abft=True)
    guard = None
    if faults is not None or resilience is not None:
        guard = FaultGuard(policy=resilience, injector=faults)
    with _coefficient_bindings(machine, coefficients):
        names = dict.fromkeys(
            name for f in filters for name in kernel_array_names(f.pattern)
        )
        plan.arrays = {name: intact_stack(machine, name) for name in names}
        return _run_ladder(plan, depths, exact, guard)


def _run_ladder(
    plan: _Plan,
    depths: Tuple[int, ...],
    exact: bool,
    guard: Optional[FaultGuard],
) -> StencilRun:
    """Run the loops; under guard, walk the graceful-degradation ladder.

    Rungs, fastest first: blocked fast path -> unblocked fast path ->
    exact per-node executor.  All three are bit-identical in float32, so
    stepping down after repeated unrecoverable faults changes the run's
    cost, never its results.  The exact rung's datapath is modeled as
    ECC-protected (no executor faults are injected there); the source
    is never modified, so each rung restarts from pristine input.  Guard
    tallies accumulate across rungs -- a degraded run's totals include
    the cycles its failed rungs burned.  An unguarded run takes only
    the first rung.

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
    unblocked = tuple(1 for _ in depths)
    rungs = ["exact"] if exact else ["fast", "exact"]
    if depths != unblocked:
        rungs.insert(0, "blocked")
    if guard is None:
        del rungs[1:]
    else:
        machine = plan.machine
        guard.attach_machine(machine)
        if machine.has_spares and guard.genesis is None:
            seen = set()
            names = []
            for name in machine.storage.names:
                stack = machine.storage.get(name)
                if stack is None or id(stack) in seen:
                    continue
                seen.add(id(stack))
                names.append(name)
            if id(plan.source) not in seen:
                names.append(plan.source_name)
            guard.genesis = machine.storage.checkpoint(names)
            guard.charge_checkpoint(machine.migration_words())
    for index, rung in enumerate(rungs):
        try:
            if rung == "blocked":
                _run_blocked(plan, depths, guard)
                return _record(plan, depths, False, [None] * len(depths), guard)
            measured = _run_unblocked(plan, rung == "exact", guard)
            return _record(plan, unblocked, rung == "exact", measured, guard)
        except (NoSpareError, LinkDownError):
            # Hardware is gone and no spare capacity remains: stepping
            # down a rung cannot help, and limping on would corrupt.
            raise
        except FaultError:
            if index == len(rungs) - 1:
                raise
            guard.note_degradation(f"{rung}->{rungs[index + 1]}")
    raise AssertionError("unreachable: the last rung returns or raises")


class _PassFailed(Exception):
    """A filter pass still failed verification after every retry."""

    def __init__(self, error: FaultError) -> None:
        super().__init__(str(error))
        self.error = error


class _Rollback:
    """One guarded loop's periodic checkpoints and replay high-water mark.

    Iterations below ``high`` were already charged canonically once;
    their re-runs are routed to the replay buckets so totals keep
    reconciling as closed form + recovery.
    """

    def __init__(self, plan: _Plan, guard: FaultGuard) -> None:
        self.plan = plan
        self.guard = guard
        self.checkpoint = None
        self.iteration = 0
        self.replays = 0
        self.high = 0

    def take(self, k: int) -> None:
        plan = self.plan
        self.checkpoint = plan.machine.storage.checkpoint([plan.result.name])
        self.iteration = k
        self.guard.charge_checkpoint(len(plan.outs) * plan.slab_words())

    def rewind(self, k: int, lost: int) -> int:
        """Restore the last checkpoint (or fall back to the untouched
        source), note the rollback of the ``k - resume + lost``
        iterations it discards, and return the iteration to resume at."""
        resume = 0
        if self.checkpoint is not None:
            self.plan.machine.storage.restore(self.checkpoint)
            resume = self.iteration
        self.guard.note_rollback(k - resume + lost)
        self.high = max(self.high, k)
        return resume


def _named_stack(
    machine: CM2,
    name: str,
    lead: Tuple[int, ...],
    shape: Tuple[int, int],
) -> np.ndarray:
    """The distributed stack ``name``, (re)allocated when missing or
    reshaped.  Exchanges look it up inside their hard-fault window, so
    a node that dies there never held it."""
    stack = machine.storage.get(name)
    if stack is None or stack.shape != lead + tuple(machine.shape) + shape:
        if lead:
            stack = machine.alloc_batch_stacked(name, lead, shape)
        else:
            stack = machine.alloc_stacked(name, shape)
    return stack


def _exchange_group(
    plan: _Plan, gi: int, k: int, guard: Optional[FaultGuard]
) -> Tuple[List[np.ndarray], int, CommStats]:
    """Iteration ``k``'s exchange for group ``gi``: one machine pass.

    Iteration 0 exchanges the source, one ``batch``-message pass serving
    every member.  Later, each filter reads its own previous iterate: a
    one-member group exchanges its result slab into the same buffer; a
    larger group gathers its members' slabs (a copy; the exchange reads
    and verifies against it) into one pass of ``batch * members``
    messages.  Returns each member's padded input, the messages sent,
    and the per-message cost.
    """
    group = plan.groups[gi]
    members = group.indices
    shape = plan.padded(group.width)
    name = plan.halo_name(gi)
    if k and len(members) > 1:
        stack = np.stack([plan.outs[fi] for fi in members], axis=-5)
        name = f"{name}__gather__"
        gathered = plan.machine.scratch_stacked(name, shape, stack.shape[:-4])
        destination = lambda: gathered
    else:
        stack = plan.outs[members[0]] if k else plan.source
        destination = lambda: _named_stack(plan.machine, name, plan.lead, shape)
    copies = math.prod(stack.shape[:-4])
    site = f"exchange into {name!r}"
    if group.uniform:
        stats = exchange_halo_batch(
            stack, destination, group.representative, plan.subgrid,
            plan.params, copies=copies, guard=guard, site=site,
        )
    else:
        stats = exchange_halo_group(
            stack, destination, group.representative, plan.subgrid,
            plan.params, group.width, copies=copies, guard=guard, site=site,
        )
    padded = destination()
    if padded.ndim > plan.source.ndim:
        views = [padded[..., j, :, :, :, :] for j in range(len(members))]
    else:
        views = [padded] * len(members)
    return views, copies, stats


#: Node-memory names under which exact mode stages one grid's tiles.
_EXACT = "__exact__"


def _exact_pass(
    plan: _Plan,
    fi: int,
    padded: np.ndarray,
    width: int,
    expected: Optional[int],
) -> int:
    """Filter ``fi``'s pass through the cycle-stepped datapath, node by
    node and grid by grid.  Each grid's padded input and result tiles
    are staged as node-memory views, so the sequencer reads and writes
    the stacks in place.  Returns the cycle count, which the SIMD
    machine requires to be identical on every node (and equal to
    ``expected`` when given)."""
    compiled = plan.filters[fi]
    out = plan.outs[fi]
    halo = halo_buffer_name(_EXACT)
    nodes = list(plan.machine.nodes())
    cycles = expected
    for entry in np.ndindex(*out.shape[:-4]):
        for node in nodes:
            tile = entry + (node.coord.row, node.coord.col)
            node.memory.install_view(halo, padded[tile])
            node.memory.install_view(_EXACT, out[tile])
            node_cycles = node_execute_exact(
                compiled,
                node,
                plan.schedules[fi],
                source_name=_EXACT,
                result_name=_EXACT,
                halo=width,
            )
            if cycles is not None and node_cycles != cycles:
                raise AssertionError(
                    "SIMD invariant violated: nodes disagree on cycles"
                )
            cycles = node_cycles
    for node in nodes:
        node.memory.free(halo)
        node.memory.free(_EXACT)
    return cycles


def _pass(
    plan: _Plan,
    fi: int,
    padded: np.ndarray,
    width: int,
    exact: bool,
    guard: Optional[FaultGuard],
    ledger: list,
    measured: List[Optional[int]],
) -> None:
    """Filter ``fi``'s unblocked pass over every grid.

    Under guard the fast pass may be poisoned and is verified finite; a
    detected fault is recomputed (the padded input is untouched by the
    executor, so a recompute is a clean retry) up to
    ``policy.max_retries`` times, every attempt charged.  The exact
    rung is modeled ECC-protected: nothing is injected there.  Raises
    :class:`_PassFailed` when the retries run out.
    """
    out = plan.outs[fi]
    schedule = plan.schedules[fi]
    strips = plan.batch * schedule.num_half_strips
    attempt = 0
    while True:
        attempt += 1
        try:
            if exact:
                measured[fi] = _exact_pass(plan, fi, padded, width, measured[fi])
            else:
                machine_execute_fast_stack(
                    plan.filters[fi].pattern,
                    padded=padded,
                    coeff_stacks=plan.arrays,
                    halo=width,
                    out=out,
                )
                if guard is not None:
                    guard.inject_poison(out)
                    guard.verify_finite(
                        out, f"fast executor result {plan.out_names[fi]!r}"
                    )
        except FaultError as error:
            # guard is not None here: only its checks raise.
            cycles = measured[fi] or schedule.compute_cycles(plan.params)
            guard.charge_compute(plan.batch * cycles, strips, recovery=True)
            if attempt > guard.policy.max_retries:
                raise _PassFailed(error) from error
            guard.note_recompute()
            continue
        if guard is not None:
            cycles = plan.batch * (
                measured[fi] if exact else schedule.compute_cycles(plan.params)
            )
            guard.charge_compute(cycles, strips)
            if not guard.replaying:
                ledger.append(lambda: guard.reclaim_compute(cycles))
        return


def _run_unblocked(
    plan: _Plan, exact: bool, guard: Optional[FaultGuard]
) -> List[Optional[int]]:
    """The per-iteration loop (every block depth 1), fast or exact.

    Each iteration exchanges every group (see :func:`_exchange_group`)
    and runs every member's pass.  When every filter's iterate
    bit-equals the input it was computed from -- a fixed point -- every
    later iteration would reproduce the same bits, so the loop stops
    computing; the accounting still charges every iteration.  NaNs
    compare unequal, so diverging runs are never cut short.

    Under guard, every exchange is checksummed and retried by the
    exchange itself; a pass still failing after its retries rolls the
    run back to the last periodic checkpoint (or to iteration 0,
    replaying from the untouched source) and replays, bounded by
    ``policy.max_replays``; a dead node is remapped onto a spare, its
    tile restored from the genesis checkpoint, and the run rewound the
    same way.  With ABFT (fast rung only), every result slab is sealed
    after its pass, the injector gets its SDC window once the periodic
    checkpoint is safely taken, and every slab is verified and
    forward-corrected as the iteration's last act, so neither the next
    exchange nor the caller reads unverified bits; multi-cell damage
    rolls back like a failed pass.  Returns the exact cycle count per
    filter (None in fast mode).
    """
    machine = plan.machine
    iterations = plan.iterations
    rows, cols = plan.subgrid
    measured: List[Optional[int]] = [None] * len(plan.filters)
    abft = guard is not None and guard.policy.abft and not exact
    rollback = _Rollback(plan, guard) if guard is not None else None
    k = 0
    while k < iterations:
        # Canonical charges of this iteration, undone (moved into the
        # replay buckets) if it rolls back: its re-run charges them.
        ledger: list = []
        fixed = k < iterations - 1
        try:
            if guard is not None:
                guard.replaying = k < rollback.high
            for gi, group in enumerate(plan.groups):
                views, copies, stats = _exchange_group(plan, gi, k, guard)
                if guard is not None and not guard.replaying:
                    ledger += [
                        lambda c=stats.cycles: guard.reclaim_exchange(c)
                    ] * copies
                width = group.width
                for padded, fi in zip(views, group.indices):
                    _pass(plan, fi, padded, width, exact, guard, ledger, measured)
                    fixed = fixed and values_equal(
                        plan.outs[fi],
                        padded[..., width : width + rows, width : width + cols],
                    )
        except NodeDeadError as dead:
            # A participant's memory is gone, detected before that
            # exchange moved or charged anything: remap the logical
            # coordinate onto a spare, restore the migrated tile from
            # the genesis checkpoint, rewind the iterate and replay.
            # Raises NoSpareError when no spare remains.
            guard.replaying = False
            for undo in ledger:
                undo()
            guard.recover_dead_node(dead.coord)
            k = rollback.rewind(k, 0)
            continue
        except _PassFailed as failed:
            # Recomputing alone did not clear it: roll back to the last
            # checkpoint (or the untouched source) and replay the
            # iterations since, this one included.
            if rollback.replays >= guard.policy.max_replays:
                raise failed.error
            rollback.replays += 1
            for undo in ledger:
                undo()
            k = rollback.rewind(k, 1)
            guard.replaying = False
            continue
        if guard is not None:
            guard.replaying = False
        k += 1
        if abft:
            for name, out in zip(plan.out_names, plan.outs):
                machine.storage.seal_abft(name, seal_checksums(out))
                guard.charge_abft(plan.slab_words(), seals=1)
        if fixed:
            if guard is not None:
                _charge_skipped(plan, guard, iterations - k, measured)
            break
        if guard is None:
            continue
        interval = guard.policy.checkpoint_interval
        if interval > 0 and k < iterations and k % interval == 0:
            rollback.take(k)
        if abft:
            # The SDC window: the checkpoint (if due) is already taken,
            # so rollback state is always clean; the strike lands in the
            # resident result tiles where no message checksum looks.
            guard.inject_sdc(
                [
                    (f"result stack {name!r}", out)
                    for name, out in zip(plan.out_names, plan.outs)
                ]
            )
            try:
                for name, out in zip(plan.out_names, plan.outs):
                    guard.charge_abft(plan.slab_words(), verifies=1)
                    corrected = verify_and_correct(
                        out,
                        machine.storage.get_abft(name),
                        site=f"abft iteration {k - 1} result",
                        guard=guard,
                    )
                    if corrected:
                        guard.charge_sdc_correction(corrected)
            except SdcUncorrectableError:
                # Forward correction is out; fall back to the rollback a
                # failed pass uses.  This iteration's charges stand;
                # every re-run below the new high-water mark lands in
                # the replay buckets.
                if rollback.replays >= guard.policy.max_replays:
                    raise
                rollback.replays += 1
                k = rollback.rewind(k, 0)
    if abft:
        for name in plan.out_names:
            machine.storage.clear_abft(name)
    return measured


def _charge_skipped(
    plan: _Plan,
    guard: FaultGuard,
    skipped: int,
    measured: List[Optional[int]],
) -> None:
    """Fixed-point short-circuit under guard: charge the skipped
    iterations' exchanges and passes exactly like the closed form."""
    for group in plan.groups:
        guard.charge_skipped_exchanges(
            skipped * plan.batch * len(group.indices),
            plan.group_cost(group).cycles,
        )
    for fi, schedule in enumerate(plan.schedules):
        cycles = measured[fi] or schedule.compute_cycles(plan.params)
        guard.charge_compute(
            skipped * plan.batch * cycles,
            skipped * plan.batch * schedule.num_half_strips,
        )


def _run_blocked(
    plan: _Plan, depths: Tuple[int, ...], guard: Optional[FaultGuard]
) -> None:
    """The temporally blocked loop (some filter's depth > 1).

    Every filter runs blocks of its own depth on its own ping-pong pair
    (a depth-1 filter runs one-step blocks: the bits of per-iteration
    exchanges).  Per group, the coefficient deep halos go first --
    exchanged once per (coefficient, depth), for the whole batch, and
    reused by every block, since the halo ring's locally recomputed
    points need the neighbors' coefficients to reproduce their bits.
    Then ONE machine pass exchanges the source at the widest member's
    deep width into that member's ping buffer, and every other member
    copies its centered window out locally -- bit-identical to its own
    deep exchange, no messages.  Later blocks re-exchange each filter's
    own state.

    Under guard, every deep exchange is checksummed and retried, the
    blocked executor runs parity-sealed, and a block whose corruption
    survives the exchange retries is replayed from a fresh exchange
    (bounded by ``policy.max_replays``; the block input lives in the
    source or the result slab, which no failed attempt modifies).  With
    ABFT, every block's result is verified before anything reads it
    (:func:`_verify_block`).  A dead
    node is remapped onto a spare, the lost tile restored from the
    genesis checkpoint, and the whole blocked run restarted from the
    pristine source; exchanges and blocks below the high-water marks
    replay into the replay buckets.
    """
    machine = plan.machine
    params = plan.params
    subgrid = plan.subgrid
    rows, cols = subgrid
    batch = plan.batch
    abft = guard is not None and guard.policy.abft
    # Steps of every block completed so far, in run order: a restart
    # replays exactly these (the run is deterministic).
    done_steps: List[int] = []
    coeff_high = block_high = 0
    while True:
        coeff_seq = block_seq = 0
        try:
            for gi, group in enumerate(plan.groups):
                members = group.indices
                pads = {fi: plan.comms[fi].pad for fi in members}
                deeps = {fi: depths[fi] * pads[fi] for fi in members}
                wide = max(deeps.values())
                owner = next(fi for fi in members if deeps[fi] == wide)
                halo = plan.halo_name(gi)
                pairs = {
                    fi: machine.pingpong_stacked(
                        f"{halo}{fi}", plan.padded(deeps[fi]), plan.lead
                    )
                    for fi in members
                }

                coeff_bufs: Dict[Tuple[str, int], np.ndarray] = {}
                if guard is not None:
                    guard.role = "coeff"
                try:
                    for fi in members:
                        pattern = plan.filters[fi].pattern
                        for name in array_coefficient_names(pattern):
                            if (name, deeps[fi]) in coeff_bufs:
                                continue
                            if guard is not None:
                                guard.replaying = coeff_seq < coeff_high
                            buf = machine.scratch_stacked(
                                f"{name}__deep{deeps[fi]}__",
                                plan.padded(deeps[fi]),
                            )
                            exchange_halo_deep(
                                plan.arrays[name], buf, pattern, subgrid,
                                params, depths[fi], guard=guard,
                            )
                            coeff_bufs[(name, deeps[fi])] = buf
                            coeff_seq += 1
                            coeff_high = max(coeff_high, coeff_seq)
                finally:
                    if guard is not None:
                        guard.role = "source"
                        guard.replaying = False

                first_steps = min(depths[owner], plan.iterations)
                first_cost = deep_width_cost(subgrid, params, wide)

                def exchange_source(targets) -> None:
                    """The group's block-0 input: one machine pass into
                    the owner's ping, then each target's centered window
                    of it."""
                    exchange_halo_group(
                        plan.source, pairs[owner][0], group.representative,
                        subgrid, params, wide, copies=batch, guard=guard,
                        site=f"deep exchange (depth {first_steps})",
                    )
                    for target in targets:
                        if target == owner:
                            continue
                        offset = wide - deeps[target]
                        pairs[target][0][...] = pairs[owner][0][
                            ...,
                            offset : offset + rows + 2 * deeps[target],
                            offset : offset + cols + 2 * deeps[target],
                        ]

                if guard is not None:
                    guard.replaying = block_seq < block_high
                exchange_source(members)
                for fi in members:
                    compiled = plan.filters[fi]
                    pattern = compiled.pattern
                    pad, deep = pads[fi], deeps[fi]
                    out = plan.outs[fi]
                    ping, pong = pairs[fi]
                    deep_coeffs = {
                        name: coeff_bufs[(name, deep)]
                        for name in array_coefficient_names(pattern)
                    }
                    blocks = list(block_steps(plan.iterations, depths[fi]))
                    for index, steps in enumerate(blocks):
                        if guard is not None:
                            guard.replaying = block_seq < block_high
                        deep_b = steps * pad
                        # A tail block centers a shallower window inside
                        # the full-depth buffers so the interior stays
                        # aligned.
                        delta = deep - deep_b
                        window = (
                            Ellipsis,
                            slice(delta, delta + rows + 2 * deep_b),
                            slice(delta, delta + cols + 2 * deep_b),
                        )
                        coeffs_v = {n: b[window] for n, b in deep_coeffs.items()}
                        replays = 0
                        fresh = index == 0
                        while True:
                            if index:
                                exchange_halo_deep(
                                    out, ping[window], pattern, subgrid,
                                    params, steps, copies=batch, guard=guard,
                                )
                            elif not fresh:
                                exchange_source((fi,))
                            fresh = False
                            try:
                                final, fixed = machine_execute_blocked(
                                    pattern,
                                    ping=ping[window],
                                    pong=pong[window],
                                    deep_coeffs=coeffs_v,
                                    subgrid_shape=subgrid,
                                    pad=pad,
                                    steps=steps,
                                    guard=guard,
                                )
                            except FaultError:
                                # guard is not None here: only the
                                # guarded executor raises.  The failed
                                # attempt still cost its compute; the
                                # wasted exchange moves to the replay
                                # bucket so the retry's exchange charges
                                # canonically exactly once.
                                guard.charge_compute(
                                    *_block_charge(plan, compiled, steps),
                                    recovery=True,
                                )
                                if replays >= guard.policy.max_replays:
                                    raise
                                replays += 1
                                if not guard.replaying:
                                    wasted = first_cost if index == 0 else (
                                        deep_exchange_cost(
                                            pattern, subgrid, params, steps
                                        )
                                    )
                                    for _ in range(batch):
                                        guard.reclaim_exchange(wasted.cycles)
                                guard.note_rollback(steps)
                                continue
                            if guard is not None:
                                guard.charge_compute(
                                    *_block_charge(plan, compiled, steps)
                                )
                            break
                        out[...] = final[
                            ..., deep_b : deep_b + rows, deep_b : deep_b + cols
                        ]
                        if block_seq == len(done_steps):
                            done_steps.append(steps)
                        block_seq += 1
                        block_high = max(block_high, block_seq)
                        if guard is not None:
                            guard.replaying = False
                        if abft:
                            _verify_block(plan, fi, index, guard)
                        if fixed:
                            # Every remaining iterate reproduces this one
                            # bit for bit; stop computing.  The closed
                            # form (and, under guard, explicit charges)
                            # still bills the whole run.
                            if guard is not None:
                                for later in blocks[index + 1 :]:
                                    guard.charge_skipped_exchanges(
                                        batch,
                                        deep_exchange_cost(
                                            pattern, subgrid, params, later
                                        ).cycles,
                                    )
                                    guard.charge_compute(
                                        *_block_charge(plan, compiled, later)
                                    )
                            break
            break
        except NodeDeadError as dead:
            # guard is not None here: only guarded exchanges raise.
            guard.replaying = False
            guard.recover_dead_node(dead.coord)
            guard.note_rollback(sum(done_steps[:block_high]))
    if abft:
        for name in plan.out_names:
            machine.storage.clear_abft(name)


def _block_charge(
    plan: _Plan, compiled: CompiledStencil, steps: int
) -> Tuple[int, int]:
    """``(cycles, half_strips)`` of one ``steps``-deep block over every
    grid."""
    cycles, strips = block_compute_cycles(compiled, plan.subgrid, steps)
    return plan.batch * cycles, plan.batch * strips


def _verify_block(
    plan: _Plan, fi: int, index: int, guard: FaultGuard
) -> None:
    """ABFT per temporal block: seal filter ``fi``'s freshly written
    result slab, give the injector its SDC window, and verify before the
    next block's deep exchange (or the caller) reads it.  A single
    corrupted word is forward-corrected in place; multi-cell damage
    cannot replay here (the block input was just overwritten), so the
    raised error degrades blocked->fast."""
    storage = plan.machine.storage
    name, out = plan.out_names[fi], plan.outs[fi]
    storage.seal_abft(name, seal_checksums(out))
    guard.charge_abft(plan.slab_words(), seals=1)
    guard.inject_sdc([(f"blocked result stack {name!r}", out)])
    guard.charge_abft(plan.slab_words(), verifies=1)
    corrected = verify_and_correct(
        out,
        storage.get_abft(name),
        site=f"abft block {index} result",
        guard=guard,
    )
    if corrected:
        guard.charge_sdc_correction(corrected)


def _record(
    plan: _Plan,
    depths: Tuple[int, ...],
    exact: bool,
    measured: List[Optional[int]],
    guard: Optional[FaultGuard],
) -> StencilRun:
    """The run record: per-filter attribution and host calls in closed
    form; totals in closed form too, unless a guard tallied them."""
    params = plan.params
    subgrid = plan.subgrid
    rows, cols = subgrid
    batch, iterations = plan.batch, plan.iterations
    count = len(plan.filters)
    shared, own, coeff = [0] * count, [0] * count, [0] * count
    comm = [0.0] * count
    compute, strips = [0] * count, [0] * count
    cycles = [
        measured[fi] or schedule.compute_cycles(params)
        for fi, schedule in enumerate(plan.schedules)
    ]
    num_exchanges = coeff_exchanges = comm_cycles = host_calls = 0
    blocked = any(depth > 1 for depth in depths)
    for group in plan.groups:
        members = group.indices
        if not blocked:
            # Per iteration one machine pass: `batch` messages at
            # iteration 0, `batch * members` after.
            cost = plan.group_cost(group).cycles
            messages = batch * (1 + (iterations - 1) * len(members))
            num_exchanges += messages
            comm_cycles += messages * cost
            host_calls += iterations
            for fi in members:
                shared[fi] += 1
                own[fi] += batch * (iterations - 1)
                comm[fi] += batch * cost / len(members)
                comm[fi] += batch * (iterations - 1) * cost
                compute[fi] += batch * iterations * cycles[fi]
                strips[fi] += (
                    batch * iterations * plan.schedules[fi].num_half_strips
                )
            continue
        # Blocked: one shared machine pass at the widest deep width,
        # coefficients once per (name, depth), then each filter's later
        # blocks.
        deeps = {fi: depths[fi] * plan.comms[fi].pad for fi in members}
        first = deep_width_cost(subgrid, params, max(deeps.values())).cycles
        num_exchanges += batch
        comm_cycles += batch * first
        host_calls += 1
        coeff_done = set()
        for fi in members:
            compiled = plan.filters[fi]
            pattern = compiled.pattern
            shared[fi] += 1
            comm[fi] += batch * first / len(members)
            for name in array_coefficient_names(pattern):
                if (name, deeps[fi]) in coeff_done:
                    continue
                coeff_done.add((name, deeps[fi]))
                cost = deep_exchange_cost(pattern, subgrid, params, depths[fi])
                coeff[fi] += 1
                coeff_exchanges += 1
                comm[fi] += cost.cycles
                comm_cycles += cost.cycles
            for index, steps in enumerate(block_steps(iterations, depths[fi])):
                if index:
                    cost = deep_exchange_cost(pattern, subgrid, params, steps)
                    own[fi] += batch
                    comm[fi] += batch * cost.cycles
                    num_exchanges += batch
                    comm_cycles += batch * cost.cycles
                    host_calls += 1
                block_cycles, block_strips = block_compute_cycles(
                    compiled, subgrid, steps
                )
                compute[fi] += batch * block_cycles
                strips[fi] += batch * block_strips
    totals = dict(
        num_exchanges=num_exchanges,
        coeff_exchanges=coeff_exchanges,
        total_comm_cycles=comm_cycles,
        total_compute_cycles=sum(compute),
        total_half_strips=sum(strips),
    )
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
            block_depth=depths[fi],
            comm=plan.comms[fi],
            pass_cycles=cycles[fi],
            pass_half_strips=plan.schedules[fi].num_half_strips,
            shared_exchanges=shared[fi],
            own_exchanges=own[fi],
            coeff_exchanges=coeff[fi],
            comm_cycles=comm[fi],
            compute_cycles=compute[fi],
            half_strips=strips[fi],
            useful_flops=(
                batch
                * iterations
                * rows
                * cols
                * plan.machine.num_nodes
                * compiled.pattern.useful_flops_per_point()
            ),
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
        block_depths=tuple(depths),
        host_calls=host_calls,
        per_filter=per_filter,
        fault_stats=guard.stats if guard is not None else FaultStats(),
        **totals,
    )


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
    abft: bool = False,
    tenant: Optional[str] = None,
) -> StencilRun:
    """Apply ``F`` compiled filters to ``B`` grids in one machine-wide
    batched call.

    Args:
        filters: the compiled stencils to apply, all sharing machine
            parameters.  Fused extra sources are read by name, as 4-d
            arrays broadcast across the batch.
        sources: a ``(B,)``-lead :class:`CMBatch`, or a sequence of
            :class:`~repro.runtime.cm_array.CMArray` on the same machine
            and global shape (staged into a batched scratch stack).
        coefficients: coefficient arrays by statement name, shared by
            every filter and batch entry (unsupplied names fall back to
            resident machine arrays).
        result: a ``(B, F)``-lead :class:`CMBatch`, its name, or None
            to create one named ``<result>__batch__``.
        iterations, exact, block_depth, faults, resilience, abft,
            tenant: as for :func:`~repro.runtime.stencil_op.apply_stencil`;
            an int ``block_depth`` is clamped per filter, ``"auto"``
            picks each filter's batch-aware modeled optimum, and a guarded
            batch walks the same recovery ladder (spare remaps included)
            as a solo call.
        check_finite: validate every source entry and every coefficient
            and fused extra-source array up front, raising
            :class:`~repro.runtime.faults.NonFiniteInputError` naming
            the offender.

    Returns:
        a :class:`StencilRun`; entry ``[b, f]`` of its result is
        bit-identical to ``apply_stencil(filters[f], sources[b], ...)``.

    Raises :class:`~repro.runtime.executor.ExecutionSetupError` when an
    array does not match the filters or a node's buffer has been
    detached from its array's machine-wide stack.
    """
    filters = tuple(filters)
    if not filters:
        raise ValueError("at least one compiled filter is required")
    if iterations < 1:
        raise ValueError("iterations must be positive")
    coefficients = dict(coefficients or {})

    params = filters[0].params
    for fi, compiled in enumerate(filters[1:], start=1):
        if compiled.params != params:
            raise ExecutionSetupError(
                f"filter {fi} was compiled for different machine "
                f"parameters; a batch shares one machine configuration"
            )

    # ------------------------------------------------------------------
    # Source staging
    # ------------------------------------------------------------------
    if isinstance(sources, CMBatch):
        if len(sources.lead_shape) != 1:
            raise ExecutionSetupError(
                f"a source batch must have exactly one lead axis "
                f"(the batch), got lead shape {sources.lead_shape}"
            )
        machine = sources.machine
        global_shape = sources.global_shape
        source_name = sources.name
        source_stack = sources.stacked
        labels = [f"{sources.name}[{b}]" for b in range(sources.lead_shape[0])]
    else:
        entries = list(sources)
        if not entries:
            raise ValueError("sources must not be empty")
        machine = entries[0].machine
        global_shape = entries[0].global_shape
        for i, array in enumerate(entries):
            if array.machine is not machine:
                raise ExecutionSetupError(
                    f"batch source {i} ({array.name!r}) lives on a "
                    f"different machine"
                )
            if array.global_shape != global_shape:
                raise ExecutionSetupError(
                    shape_mismatch(
                        f"batch source {i} ({array.name!r})",
                        array.global_shape,
                        global_shape,
                    )
                )
        stacks = [intact_stack(machine, array.name) for array in entries]
        source_name = "__batch_source__"
        source_stack = machine.scratch_stacked(
            source_name, stacks[0].shape[-2:], (len(stacks),)
        )
        for b, stack in enumerate(stacks):
            source_stack[b] = stack
        labels = [array.name for array in entries]
    batch = len(labels)
    subgrid_shape = tuple(source_stack.shape[-2:])

    # ------------------------------------------------------------------
    # Filter and input validation
    # ------------------------------------------------------------------
    rows, cols = subgrid_shape
    inputs: Dict[str, str] = {}
    for fi, compiled in enumerate(filters):
        pattern = compiled.pattern
        label = pattern.name or f"filter {fi}"
        pad = pattern.border_widths().max_width
        if pad > min(rows, cols):
            raise ExecutionSetupError(
                f"halo width {pad} of {label} exceeds the subgrid extent "
                f"{subgrid_shape}; the exchange primitive reaches only "
                f"immediate neighbors"
            )
        for name in kernel_array_names(pattern):
            array = coefficients.get(name)
            if array is not None:
                if array.machine is not machine:
                    raise ExecutionSetupError(
                        f"coefficient {name!r} lives on a different machine"
                    )
                if array.global_shape != tuple(global_shape):
                    raise ExecutionSetupError(
                        shape_mismatch(
                            f"coefficient {name!r}",
                            array.global_shape,
                            tuple(global_shape),
                        )
                    )
                inputs[name] = array.name
                continue
            stack = machine.storage.get(name)
            if stack is None:
                raise ExecutionSetupError(
                    f"array {name!r} read by {label} is neither supplied "
                    f"nor resident on the machine as a stacked array"
                )
            if tuple(stack.shape[-2:]) != subgrid_shape:
                raise ExecutionSetupError(
                    shape_mismatch(
                        f"resident array {name!r} subgrid",
                        stack.shape[-2:],
                        subgrid_shape,
                    )
                )
            inputs[name] = name

    # ------------------------------------------------------------------
    # Result resolution (alias checks BEFORE any allocation can clobber
    # a same-named source)
    # ------------------------------------------------------------------
    source_names = {sources.name} if isinstance(sources, CMBatch) else set(labels)
    if result is None:
        result = f"{filters[0].pattern.result}__batch__"
    if isinstance(result, str):
        if result in source_names:
            raise ExecutionSetupError(
                f"result {result!r} must not alias a source array"
            )
        result = CMBatch(
            result, machine, (batch, len(filters)), global_shape
        )
    else:
        if result is sources or result.name in source_names:
            raise ExecutionSetupError(
                f"result {result.name!r} must not alias a source array"
            )
        if result.machine is not machine:
            raise ExecutionSetupError(
                f"result {result.name!r} lives on a different machine"
            )
        want = (batch, len(filters)) + tuple(global_shape)
        got = result.lead_shape + result.global_shape
        if got != want:
            raise ExecutionSetupError(
                shape_mismatch(f"result batch {result.name!r}", got, want)
            )

    if check_finite:
        for b, label in enumerate(labels):
            if not np.isfinite(source_stack[b]).all():
                raise NonFiniteInputError(
                    f"batch source entry {b} ({label!r}) contains NaN/Inf "
                    "(apply_stencil_batch was called with check_finite=True)"
                )
        for name in dict.fromkeys(inputs.values()):
            if not np.isfinite(intact_stack(machine, name)).all():
                raise NonFiniteInputError(
                    f"input array {name!r} contains NaN/Inf "
                    "(apply_stencil_batch was called with check_finite=True)"
                )

    return run_stencil(
        filters,
        source_name,
        source_stack,
        result,
        tuple(result.stacked[:, fi] for fi in range(len(filters))),
        tuple(f"{result.name}[:, {fi}]" for fi in range(len(filters))),
        coefficients,
        iterations=iterations,
        exact=exact,
        block_depth=block_depth,
        faults=faults,
        resilience=resilience,
        abft=abft,
        tenant=tenant,
    )
