"""The user-facing stencil application entry point.

``apply_stencil`` does what the paper's run-time library does for one
call: allocate temporary halo storage, perform the up-front neighbor
exchange, then drive every node's subgrid through the strip-mined
compiled plans -- and returns a complete accounting of where the time
went.

Iterated runs can additionally be *temporally blocked*: a halo ``T``
times deeper is exchanged once per block of ``T`` iterations, and the
whole block runs locally on a ping-pong buffer pair, each sub-iteration
consuming one ``pad`` of the remaining ghost depth (see
:mod:`repro.runtime.blocking`).  Blocking changes the exchange count --
``ceil(iterations / T)`` deep exchanges instead of ``iterations``
shallow ones -- but not a single result bit.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, Optional, Union

from ..compiler.driver import select_block_depth
from ..compiler.plan import CompiledStencil
from ..machine.machine import CM2
from ..machine.params import MachineParams
from ..verify.aliasing import ensure_no_aliasing
from .blocking import (
    array_coefficient_names,
    block_compute_cycles,
    block_steps,
    blockable,
    blocked_costs,
    depth_cap,
)
from .abft import seal_checksums, verify_and_correct
from .cm_array import CMArray, intact_stack
from .executor import (
    ExecutionSetupError,
    check_arrays,
    check_finite_arrays,
    machine_execute_blocked,
    machine_execute_fast,
    node_execute_exact,
    # Not called here: perfbench's tracer wraps the solo engine's entry
    # points by this module's attributes and still looks this one up.
    node_execute_fast,
    values_equal,
)
from .faults import (
    DegradationExhaustedError,
    FaultError,
    FaultGuard,
    FaultInjector,
    FaultStats,
    LinkDownError,
    NodeDeadError,
    NoSpareError,
    ResiliencePolicy,
    SdcUncorrectableError,
)
from .halo import (
    CommStats,
    deep_exchange_cost,
    exchange_cost,
    exchange_halo,
    exchange_halo_deep,
    halo_buffer_name,
)
from .strips import StripSchedule


@dataclass(frozen=True)
class StencilRun:
    """The outcome of one (possibly iterated) stencil call.

    Cycle counts are per node per iteration; the CM-2 is synchronous
    SIMD, so they are identical on every node and independent of machine
    size.

    Attributes:
        compiled: the plan that ran.
        machine: the machine it ran on.
        result: the distributed result array.
        iterations: how many times the computation was (or is modeled to
            be) applied.
        compute_cycles: node cycles per iteration inside the microcode
            loops (strip mining included), for an unblocked
            subgrid-shaped iteration.
        comm: halo-exchange cost of one *shallow* (depth-1) exchange.
        half_strips: microcode invocations per unblocked iteration
            (drives the front-end overhead).
        exact: whether the cycle count came from the cycle-stepped
            datapath (True) or the closed-form model (False).
        block_depth: temporal block depth ``T`` (1 = unblocked).
        num_exchanges: source halo exchanges charged over the whole run
            (``ceil(iterations / T)`` when blocked, ``iterations``
            otherwise); None means the per-iteration default.
        coeff_exchanges: coefficient deep exchanges (blocked runs only).
        block_comm: cost of one full-depth deep exchange (blocked runs).
        total_comm_cycles: aggregated exchange cycles over the whole
            run; None means ``iterations * comm.cycles``.
        total_compute_cycles: aggregated node compute cycles; None means
            ``iterations * compute_cycles``.
        total_half_strips: aggregated microcode invocations; None means
            ``iterations * half_strips``.
        faults: chaos-run fault/retry/checkpoint accounting; None (the
            default) on ordinary runs -- see :attr:`fault_stats`.
    """

    compiled: CompiledStencil
    machine: CM2
    result: CMArray
    iterations: int
    compute_cycles: int
    comm: CommStats
    half_strips: int
    exact: bool
    block_depth: int = 1
    num_exchanges: Optional[int] = None
    coeff_exchanges: int = 0
    block_comm: Optional[CommStats] = None
    total_comm_cycles: Optional[int] = None
    total_compute_cycles: Optional[int] = None
    total_half_strips: Optional[int] = None
    faults: Optional[FaultStats] = None

    @property
    def params(self) -> MachineParams:
        return self.compiled.params

    @property
    def fault_stats(self) -> FaultStats:
        """Fault accounting, all-zero for ordinary (unguarded) runs."""
        return self.faults if self.faults is not None else FaultStats()

    @property
    def exchanges(self) -> int:
        """Halo exchanges charged over the whole run."""
        if self.num_exchanges is not None:
            return self.num_exchanges
        return self.iterations

    @property
    def comm_cycles_total(self) -> int:
        """All exchange cycles over the whole run (source and, when
        blocked, coefficient deep exchanges)."""
        if self.total_comm_cycles is not None:
            return self.total_comm_cycles
        return self.iterations * self.comm.cycles

    @property
    def compute_cycles_total(self) -> int:
        if self.total_compute_cycles is not None:
            return self.total_compute_cycles
        return self.iterations * self.compute_cycles

    @property
    def half_strips_total(self) -> int:
        if self.total_half_strips is not None:
            return self.total_half_strips
        return self.iterations * self.half_strips

    @property
    def host_calls(self) -> int:
        """Run-time-library invocations the host issues: one per block
        when temporally blocked (the deep exchange and the whole local
        sub-iteration loop ride on a single call), one per iteration
        otherwise."""
        return self.exchanges if self.block_depth > 1 else self.iterations

    @property
    def host_seconds_total(self) -> float:
        """Front-end time over the whole run: the per-call fixed cost
        for every library invocation plus the per-half-strip issue
        cost."""
        return (
            self.host_calls * self.params.host_fixed_s
            + self.half_strips_total * self.params.host_halfstrip_s
        )

    @property
    def cycles_per_iteration(self) -> int:
        return self.compute_cycles + self.comm.cycles

    @property
    def machine_seconds_per_iteration(self) -> float:
        return (
            self.params.seconds(
                self.compute_cycles_total + self.comm_cycles_total
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
                self.compute_cycles_total + self.comm_cycles_total
            )
            + self.host_seconds_total
        )

    @property
    def useful_flops_per_node_per_iteration(self) -> int:
        rows, cols = self.result.subgrid_shape
        return rows * cols * self.compiled.pattern.useful_flops_per_point()

    @property
    def useful_flops(self) -> int:
        return (
            self.useful_flops_per_node_per_iteration
            * self.machine.num_nodes
            * self.iterations
        )

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
        blocked = (
            f", block depth {self.block_depth}" if self.block_depth > 1 else ""
        )
        return (
            f"{self.compiled.pattern.name or 'stencil'} on "
            f"{self.machine.num_nodes} nodes, {rows}x{cols} subgrids, "
            f"{self.iterations} iterations{blocked}: "
            f"{self.elapsed_seconds:.2f} s, {self.mflops:.1f} Mflops"
        )


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


def _at_fixed_point(
    machine: CM2, halo_name: str, result_name: str, pad: int
) -> bool:
    """True when the result bit-equals the interior of the padded input
    it was computed from -- a fixed point.  Every subsequent iteration
    would then reproduce the same bits (same input, same taps), so the
    iteration loop can stop computing early without changing the answer.
    NaNs compare unequal, so diverging runs are never cut short.
    """
    padded = machine.storage.get(halo_name)
    result = machine.storage.get(result_name)
    if padded is None or result is None:
        return False
    rows, cols = result.shape[2:]
    return values_equal(
        result, padded[:, :, pad : pad + rows, pad : pad + cols]
    )


def _resolve_block_depth(
    compiled: CompiledStencil,
    source: CMArray,
    iterations: int,
    exact: bool,
    block_depth: Union[int, str],
    tenant: Optional[str] = None,
) -> int:
    """Validate the caller's ``block_depth`` and clamp it to what the
    run can actually support.  Exact mode, single calls, and
    unblockable patterns always resolve to 1."""
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
    if exact or iterations < 2:
        return 1
    if not blockable(compiled.pattern):
        return 1
    cap = depth_cap(compiled.pattern, source.subgrid_shape, iterations)
    if requested is not None:
        return min(requested, cap)
    if cap < 2:
        return 1
    return select_block_depth(
        compiled,
        source.subgrid_shape,
        iterations,
        machine=source.machine,
        tenant=tenant,
    )


def _apply_blocked(
    compiled: CompiledStencil,
    source: CMArray,
    result: CMArray,
    schedule: StripSchedule,
    depth: int,
    iterations: int,
    guard: Optional[FaultGuard] = None,
) -> StencilRun:
    """Run an iterated call temporally blocked at ``depth``.

    Under ``guard``, every deep exchange is checksummed and retried, the
    blocked executor runs parity-sealed, and a block whose corruption
    survives the exchange retries is rolled back and replayed (bounded
    by ``policy.max_replays``) -- the block input lives in ``current``,
    which no failed attempt modifies, so a replay is a fresh exchange
    plus a fresh block.  Every attempt is charged to the guard's
    tallies, and the returned run is built from those tallies.
    """
    machine = source.machine
    pattern = compiled.pattern
    params = compiled.params
    rows, cols = source.subgrid_shape
    pad = pattern.border_widths().max_width

    source_stack = intact_stack(machine, source.name)
    result_stack = intact_stack(machine, result.name)
    coeff_names = array_coefficient_names(pattern)
    coeff_stacks = {name: intact_stack(machine, name) for name in coeff_names}

    deep = depth * pad
    padded_shape = (rows + 2 * deep, cols + 2 * deep)
    halo_name = halo_buffer_name(source.name)
    ping, pong = machine.pingpong_stacked(halo_name, padded_shape)

    costs = blocked_costs(compiled, source.subgrid_shape, iterations, depth)
    blocks = list(block_steps(iterations, depth))

    # Hard-fault restart state: a dead node detected mid-run loses its
    # tile of every buffer, so recovery remaps it onto a spare, restores
    # source/coefficients from the genesis checkpoint, and restarts the
    # whole blocked run from the pristine source.  Coefficient exchanges
    # and blocks below the high-water marks were already charged
    # canonically; their re-runs are routed to the replay buckets.
    coeff_high = 0
    block_high = 0
    while True:
        try:
            # Coefficient deep halos: exchanged once, reused by every
            # block.  The halo ring's locally recomputed points need the
            # neighbors' coefficient values to reproduce their bits.
            deep_coeffs = {}
            if guard is not None:
                guard.role = "coeff"
            try:
                for coeff_index, name in enumerate(coeff_names):
                    if guard is not None:
                        guard.replaying = coeff_index < coeff_high
                    buf = machine.scratch_stacked(
                        f"{name}__deep__", padded_shape
                    )
                    exchange_halo_deep(
                        coeff_stacks[name],
                        buf,
                        pattern,
                        (rows, cols),
                        params,
                        depth,
                        guard=guard,
                    )
                    deep_coeffs[name] = buf
                    coeff_high = max(coeff_high, coeff_index + 1)
            finally:
                if guard is not None:
                    guard.role = "source"
                    guard.replaying = False

            current = source_stack
            for index, steps in enumerate(blocks):
                if guard is not None:
                    guard.replaying = index < block_high
                deep_b = steps * pad
                if deep_b < deep:
                    # Tail block: center a shallower padded window
                    # inside the full-depth buffers so the interior
                    # stays aligned.
                    delta = deep - deep_b
                    window = (
                        slice(None),
                        slice(None),
                        slice(delta, delta + rows + 2 * deep_b),
                        slice(delta, delta + cols + 2 * deep_b),
                    )
                    ping_v, pong_v = ping[window], pong[window]
                    coeffs_v = {n: b[window] for n, b in deep_coeffs.items()}
                else:
                    ping_v, pong_v, coeffs_v = ping, pong, deep_coeffs
                block_cycles, block_strips = (
                    block_compute_cycles(compiled, (rows, cols), steps)
                    if guard is not None
                    else (0, 0)
                )
                replays = 0
                while True:
                    exchange_halo_deep(
                        current, ping_v, pattern, (rows, cols), params,
                        steps, guard=guard,
                    )
                    try:
                        final, fixed = machine_execute_blocked(
                            pattern,
                            ping=ping_v,
                            pong=pong_v,
                            deep_coeffs=coeffs_v,
                            subgrid_shape=(rows, cols),
                            pad=pad,
                            steps=steps,
                            guard=guard,
                        )
                    except FaultError:
                        # guard is not None here: only the guarded
                        # executor raises.  The failed attempt still
                        # cost its compute (a recovery charge); the
                        # block input (``current``) is untouched, so a
                        # replay is a fresh exchange plus a fresh
                        # block.  The wasted exchange is reclaimed into
                        # the replay bucket so the retry's exchange
                        # charges canonically exactly once.
                        guard.charge_compute(
                            block_cycles, block_strips, recovery=True
                        )
                        if replays >= guard.policy.max_replays:
                            raise
                        replays += 1
                        if not guard.replaying:
                            guard.reclaim_exchange(
                                deep_exchange_cost(
                                    pattern, (rows, cols), params, steps
                                ).cycles
                            )
                        guard.note_rollback(steps)
                        continue
                    if guard is not None:
                        guard.charge_compute(block_cycles, block_strips)
                    break
                result_stack[...] = final[
                    :, :, deep_b : deep_b + rows, deep_b : deep_b + cols
                ]
                block_high = max(block_high, index + 1)
                if guard is not None:
                    guard.replaying = False
                if guard is not None and guard.policy.abft:
                    # ABFT per temporal block: seal the freshly written
                    # result, give the injector its SDC window, and
                    # verify before the next block's deep exchange (or
                    # the caller) reads the stack.  A single corrupted
                    # word is forward-corrected in place; multi-cell
                    # damage cannot replay here (the block input was
                    # just overwritten), so the raised
                    # SdcUncorrectableError degrades blocked->fast,
                    # restarting from the pristine source.
                    machine.storage.seal_abft(
                        result.name, seal_checksums(result_stack)
                    )
                    guard.charge_abft(rows * cols, seals=1)
                    guard.inject_sdc(
                        [(f"blocked result stack {result.name!r}",
                          result_stack)]
                    )
                    guard.charge_abft(rows * cols, verifies=1)
                    corrected = verify_and_correct(
                        result_stack,
                        machine.storage.get_abft(result.name),
                        site=f"abft block {index} result",
                        guard=guard,
                    )
                    if corrected:
                        guard.charge_sdc_correction(corrected)
                if fixed:
                    # Every remaining iterate reproduces this one bit
                    # for bit; stop computing.  The accounting still
                    # charges the whole run (``costs`` unguarded,
                    # explicit charges under guard).
                    if guard is not None:
                        for later_steps in blocks[index + 1 :]:
                            guard.charge_skipped_exchanges(
                                1,
                                deep_exchange_cost(
                                    pattern, (rows, cols), params,
                                    later_steps,
                                ).cycles,
                            )
                            guard.charge_compute(
                                *block_compute_cycles(
                                    compiled, (rows, cols), later_steps
                                )
                            )
                    break
                current = result_stack
            break
        except NodeDeadError as dead:
            # guard is not None here: only guarded exchanges raise.
            # Remap the dead node onto a spare, restore the lost tile's
            # source/coefficients from the genesis checkpoint, and
            # restart the blocked run from the pristine source --
            # completed blocks replay into the replay buckets.
            guard.replaying = False
            guard.recover_dead_node(dead.coord)
            guard.note_rollback(sum(blocks[:block_high]))

    if guard is not None:
        if guard.policy.abft:
            machine.storage.clear_abft(result.name)
        return StencilRun(
            compiled=compiled,
            machine=machine,
            result=result,
            iterations=iterations,
            compute_cycles=schedule.compute_cycles(params),
            comm=exchange_cost(pattern, source.subgrid_shape, params),
            half_strips=schedule.num_half_strips,
            exact=False,
            block_depth=depth,
            num_exchanges=guard.exchanges,
            coeff_exchanges=guard.coeff_exchanges,
            block_comm=costs.block_comm,
            total_comm_cycles=guard.comm_cycles,
            total_compute_cycles=guard.compute_cycles,
            total_half_strips=guard.half_strips,
            faults=guard.stats,
        )
    return StencilRun(
        compiled=compiled,
        machine=machine,
        result=result,
        iterations=iterations,
        compute_cycles=schedule.compute_cycles(params),
        comm=exchange_cost(pattern, source.subgrid_shape, params),
        half_strips=schedule.num_half_strips,
        exact=False,
        block_depth=depth,
        num_exchanges=costs.num_exchanges,
        coeff_exchanges=costs.coeff_exchanges,
        block_comm=costs.block_comm,
        total_comm_cycles=costs.total_comm_cycles,
        total_compute_cycles=costs.total_compute_cycles,
        total_half_strips=costs.total_half_strips,
    )


def _apply_resilient(
    compiled: CompiledStencil,
    source: CMArray,
    result: CMArray,
    schedule: StripSchedule,
    iterations: int,
    exact: bool,
    depth: int,
    guard: FaultGuard,
) -> StencilRun:
    """The guarded run: walk the graceful-degradation ladder.

    Rungs, fastest first: blocked fast path -> unblocked fast path ->
    exact per-node executor.  All three are bit-identical in float32, so
    stepping down after repeated unrecoverable faults changes the run's
    cost, never its results.  The exact rung's datapath is modeled as
    ECC-protected (no executor faults are injected there); the source
    array is never modified, so each rung restarts from pristine input.
    Guard tallies accumulate across rungs -- a degraded run's totals
    include the cycles its failed rungs burned.

    Hard faults add a final implicit rung past "exact": spare-node
    remapping.  Arming the guard against the machine enables detection
    (exchange deadlines, route-failure probes); when the machine is
    configured with spares, a genesis checkpoint of every distributed
    stack (source, coefficients, result) is taken up front -- the
    reference a remap restores the lost tile from.  A dead node is
    repaired *inside* the current rung (remap + restore + replay), not
    by stepping down: no rung can outrun a node whose memory is gone.
    :class:`NoSpareError` and :class:`LinkDownError` are therefore
    unrecoverable-by-degradation and propagate immediately -- the typed
    failure the no-spare guarantee demands, never silent corruption.
    """
    machine = source.machine
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
        guard.genesis = machine.storage.checkpoint(names)
        guard.charge_checkpoint(machine.migration_words())
    rungs = ["exact"] if exact else (
        ["blocked", "fast", "exact"] if depth > 1 else ["fast", "exact"]
    )
    for index, rung in enumerate(rungs):
        try:
            if rung == "blocked":
                return _apply_blocked(
                    compiled, source, result, schedule, depth, iterations,
                    guard=guard,
                )
            return _iterate_resilient(
                compiled, source, result, schedule, iterations,
                exact=rung == "exact", guard=guard,
            )
        except (NoSpareError, LinkDownError):
            # Hardware is gone and no spare capacity remains: stepping
            # down a rung cannot help, and limping on would corrupt.
            raise
        except FaultError:
            if index == len(rungs) - 1:
                raise
            guard.note_degradation(f"{rung}->{rungs[index + 1]}")
    raise DegradationExhaustedError(
        "no execution rung completed"
    )  # pragma: no cover - the exact rung returns or raises


def _iterate_resilient(
    compiled: CompiledStencil,
    source: CMArray,
    result: CMArray,
    schedule: StripSchedule,
    iterations: int,
    *,
    exact: bool,
    guard: FaultGuard,
) -> StencilRun:
    """One rung's iterated loop with retry, checkpoint, and rollback.

    Semantically the unblocked loop of :func:`apply_stencil`, with the
    detection + recovery protocol threaded through: every exchange is
    checksummed and retried by :func:`~repro.runtime.halo.exchange_halo`
    itself; a detected executor fault is recomputed up to
    ``policy.max_retries`` times, then the run rolls back to the last
    periodic checkpoint (or to iteration 0, replaying from the untouched
    source) and replays, bounded by ``policy.max_replays``.  Every
    attempt -- exchanges, recomputes, checkpoints, replays -- is charged
    to the guard, and the returned run is built from its tallies.
    """
    machine = source.machine
    pattern = compiled.pattern
    params = compiled.params
    policy = guard.policy
    halo_name = halo_buffer_name(source.name)
    comm = exchange_cost(pattern, source.subgrid_shape, params)
    pad = comm.pad
    rows, cols = result.subgrid_shape
    pass_half_strips = schedule.num_half_strips

    checkpoint = None
    checkpoint_iteration = 0
    replays = 0
    replay_high = 0
    exact_cycles: Optional[int] = None
    # ABFT protocol (policy.abft, non-exact rungs only -- the exact
    # rung's datapath is modeled ECC-protected): seal the
    # result stack's row/column checksums after every pass, give the
    # injector its SDC window once the periodic checkpoint is safely
    # taken, and verify+forward-correct as the iteration's last act, so
    # neither the next exchange nor the caller ever reads unverified
    # bits.  Multi-cell damage rolls back like an executor fault.
    result_stack = intact_stack(machine, result.name)
    abft_on = policy.abft and not exact
    k = 0
    while k < iterations:
        # Iterations below the replay high-water mark were already
        # charged to the canonical counters once; their re-runs are
        # routed to the replay buckets so totals keep reconciling as
        # closed form + recovery.
        guard.replaying = k < replay_high
        was_replay = guard.replaying
        try:
            exchange_halo(
                source if k == 0 else result,
                pattern,
                params,
                into=halo_name,
                guard=guard,
            )
        except NodeDeadError as dead:
            # A participant's memory is gone.  Detected before any data
            # moved (nothing was charged for this exchange): remap the
            # logical coordinate onto a spare, restore the migrated
            # tile's source/coefficients from the genesis checkpoint,
            # rewind the iterate to the last periodic checkpoint, and
            # replay.  Raises NoSpareError when no spare remains.
            guard.replaying = False
            guard.recover_dead_node(dead.coord)
            if checkpoint is not None:
                machine.storage.restore(checkpoint)
                resume = checkpoint_iteration
            else:
                resume = 0
            guard.note_rollback(k - resume)
            replay_high = max(replay_high, k)
            k = resume
            continue
        attempt = 0
        rolled_back = False
        while True:
            attempt += 1
            try:
                exact_cycles = _execute_pass_resilient(
                    compiled, machine, schedule, source.name, result.name,
                    pad, exact=exact, expected_cycles=exact_cycles,
                    guard=guard,
                )
            except FaultError:
                guard.charge_compute(
                    exact_cycles
                    if exact and exact_cycles is not None
                    else schedule.compute_cycles(params),
                    pass_half_strips,
                    recovery=True,
                )
                if attempt > policy.max_retries:
                    # Recomputing alone did not clear it: roll back to
                    # the last checkpoint (or the untouched source) and
                    # replay the iterations since.  This iteration's
                    # exchange was already charged canonically; reclaim
                    # it into the replay bucket so the post-rollback
                    # re-exchange charges canonically exactly once.
                    if replays >= policy.max_replays:
                        raise
                    replays += 1
                    if not was_replay:
                        guard.reclaim_exchange(comm.cycles)
                    if checkpoint is not None:
                        machine.storage.restore(checkpoint)
                        resume = checkpoint_iteration
                    else:
                        resume = 0
                    guard.note_rollback(k - resume + 1)
                    replay_high = max(replay_high, k)
                    k = resume
                    rolled_back = True
                    break
                guard.note_recompute()
                continue
            guard.charge_compute(
                exact_cycles if exact else schedule.compute_cycles(params),
                pass_half_strips,
            )
            break
        guard.replaying = False
        if rolled_back:
            continue
        k += 1
        if abft_on:
            machine.storage.seal_abft(
                result.name, seal_checksums(result_stack)
            )
            guard.charge_abft(rows * cols, seals=1)
        if k < iterations and _at_fixed_point(
            machine, halo_name, result.name, pad
        ):
            # The iterate equals its own input; every later iteration
            # reproduces it bit for bit.  Charge the skipped iterations'
            # exchanges and compute, exactly like the unguarded path.
            skipped = iterations - k
            guard.charge_skipped_exchanges(skipped, comm.cycles)
            guard.charge_compute(
                skipped
                * (exact_cycles if exact else schedule.compute_cycles(params)),
                skipped * pass_half_strips,
            )
            break
        if (
            policy.checkpoint_interval > 0
            and k < iterations
            and k % policy.checkpoint_interval == 0
        ):
            checkpoint = machine.storage.checkpoint([result.name])
            checkpoint_iteration = k
            guard.charge_checkpoint(rows * cols)
        if abft_on:
            # The SDC window: the checkpoint (if due) is already taken,
            # so rollback state is always clean; the strike lands in the
            # resident result tiles where no message checksum looks.
            guard.inject_sdc(
                [(f"result stack {result.name!r}", result_stack)]
            )
            guard.charge_abft(rows * cols, verifies=1)
            try:
                corrected = verify_and_correct(
                    result_stack,
                    machine.storage.get_abft(result.name),
                    site=f"abft iteration {k - 1} result",
                    guard=guard,
                )
            except SdcUncorrectableError:
                # Forward correction is out; fall back to the same
                # checkpoint/rollback ladder an executor fault uses.
                # This iteration's exchange and compute were charged
                # canonically and stand; every re-run below the new
                # high-water mark lands in the replay buckets.
                if replays >= policy.max_replays:
                    raise
                replays += 1
                if checkpoint is not None:
                    machine.storage.restore(checkpoint)
                    resume = checkpoint_iteration
                else:
                    resume = 0
                guard.note_rollback(k - resume)
                replay_high = max(replay_high, k)
                k = resume
                continue
            if corrected:
                guard.charge_sdc_correction(corrected)

    if abft_on:
        machine.storage.clear_abft(result.name)
    return StencilRun(
        compiled=compiled,
        machine=machine,
        result=result,
        iterations=iterations,
        compute_cycles=(
            exact_cycles if exact else schedule.compute_cycles(params)
        ),
        comm=comm,
        half_strips=pass_half_strips,
        exact=exact,
        num_exchanges=guard.exchanges,
        total_comm_cycles=guard.comm_cycles,
        total_compute_cycles=guard.compute_cycles,
        total_half_strips=guard.half_strips,
        faults=guard.stats,
    )


def _execute_pass_resilient(
    compiled: CompiledStencil,
    machine: CM2,
    schedule: StripSchedule,
    source_name: str,
    result_name: str,
    pad: int,
    *,
    exact: bool,
    expected_cycles: Optional[int],
    guard: FaultGuard,
) -> Optional[int]:
    """One executor pass under guard; returns the exact cycle count.

    The exact rung's cycle-stepped datapath is modeled as ECC-protected:
    no faults are injected there and its output is trusted verbatim --
    the floor of the degradation ladder.
    """
    if exact:
        cycles = expected_cycles
        for node in machine.nodes():
            node_cycles = node_execute_exact(
                compiled,
                node,
                schedule,
                source_name=source_name,
                result_name=result_name,
                halo=pad,
            )
            if cycles is not None and node_cycles != cycles:
                raise AssertionError(
                    "SIMD invariant violated: nodes disagree on cycles"
                )
            cycles = node_cycles
        return cycles
    machine_execute_fast(
        compiled.pattern,
        machine,
        source_name=source_name,
        result_name=result_name,
        halo=pad,
        guard=guard,
    )
    return expected_cycles


def apply_stencil(
    compiled: CompiledStencil,
    source: CMArray,
    coefficients: Optional[Dict[str, CMArray]] = None,
    result: Union[CMArray, str, None] = None,
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
    """Apply a compiled stencil to a distributed array.

    Args:
        compiled: output of :func:`repro.compiler.compile_stencil` (or
            the Fortran/defstencil drivers).
        source: the shifted data array (``X`` in the paper).
        coefficients: coefficient arrays by statement name (``C1``...).
        result: the result array, its name, or None to create one named
            after the statement's left-hand side.
        iterations: how many times to apply the stencil.  The result of
            iteration *k* is the source of iteration *k+1*: before every
            iteration after the first, the halos are re-exchanged from
            the previous result, exactly as ``iterations`` sequential
            single calls would.  The source array itself is never
            modified; after the run, ``result`` holds the final iterate.
        exact: run the cycle-stepped datapath instead of the vectorized
            fast path, which runs the whole node grid as one stacked
            array operation per tap.  Numerics are bit-identical either
            way.
        block_depth: temporal block depth ``T``.  ``1`` (the default)
            exchanges once per iteration; an int > 1 exchanges a
            ``T * pad``-deep halo once per block of ``T`` iterations and
            runs each block locally on ping-pong buffers; ``"auto"``
            picks the depth with the lowest modeled elapsed time (see
            :func:`repro.compiler.driver.select_block_depth`).  Depths
            are clamped to what the subgrid supports; blocking requires
            the fast path and silently resolves to 1 in exact mode.
            Results are bit-identical at every depth.
        check_finite: validate up front that the source, coefficient,
            and fused extra-term arrays contain no NaN/Inf, raising
            :class:`~repro.runtime.faults.NonFiniteInputError` naming
            the offending array instead of silently propagating them
            through ``iterations`` applications.
        faults: a seeded
            :class:`~repro.runtime.faults.FaultInjector` for chaos
            runs.  Supplying one (or ``resilience``) switches the run
            onto the guarded path: checksummed, retried exchanges, a
            parity-sealed blocked executor, periodic checkpoints with
            rollback-and-replay, and the graceful-degradation ladder
            (blocked -> fast -> exact, all bit-identical).  The run's
            :class:`~repro.runtime.faults.FaultStats` rides on the
            returned :attr:`StencilRun.faults`.
        resilience: detection/recovery knobs for the guarded path (a
            :class:`~repro.runtime.faults.ResiliencePolicy`); defaults
            apply when only ``faults`` is given.
        abft: shorthand that switches the run onto the guarded path
            with :attr:`ResiliencePolicy.abft` enabled -- row/column
            checksums sealed over the result stack every iteration (or
            temporal block), verified before any consumer reads it,
            single corrupted words forward-corrected in place (see
            :mod:`repro.runtime.abft`).  Composes with ``resilience``
            (the policy is upgraded via ``dataclasses.replace``) and
            with ``faults`` (required for injecting
            :attr:`~repro.runtime.faults.FaultKind.SDC`).
        tenant: tenant id scoping the compile-driver cache telemetry
            (the stencil service passes each job's tenant; results and
            cache *contents* are tenant-agnostic either way).

    Returns:
        a :class:`StencilRun` with the result and full cost accounting.

    Raises :class:`~repro.runtime.executor.ExecutionSetupError` when an
    array does not match the statement or a node's buffer has been
    detached from its array's machine-wide stack.
    """
    if iterations < 1:
        raise ValueError("iterations must be positive")
    machine = source.machine
    pattern = compiled.pattern
    coefficients = coefficients or {}
    if result is None:
        result = pattern.result
    if isinstance(result, str):
        result = CMArray(result, machine, source.global_shape)
    check_arrays(compiled, source, coefficients, result)
    ensure_no_aliasing(compiled, source, coefficients, result)
    if check_finite:
        check_finite_arrays(compiled, source, coefficients)

    schedule = StripSchedule.cached(compiled, source.subgrid_shape)
    params = compiled.params
    halo_name = halo_buffer_name(source.name)
    depth = _resolve_block_depth(
        compiled, source, iterations, exact, block_depth, tenant
    )

    if abft:
        if resilience is None:
            resilience = ResiliencePolicy(abft=True)
        elif not resilience.abft:
            resilience = replace(resilience, abft=True)

    if faults is not None or resilience is not None:
        guard = FaultGuard(policy=resilience, injector=faults)
        with _coefficient_bindings(machine, coefficients):
            return _apply_resilient(
                compiled, source, result, schedule, iterations,
                exact, depth, guard,
            )

    with _coefficient_bindings(machine, coefficients):
        if depth > 1:
            return _apply_blocked(
                compiled, source, result, schedule, depth, iterations
            )
        comm = exchange_halo(source, pattern, params)
        pad = comm.pad
        exchanges = 1
        comm_cycles = comm.cycles
        cycles = None
        for iteration in range(iterations):
            if iteration:
                # Feed the previous iterate back: the result becomes the
                # source by re-exchanging its halo into the same padded
                # buffer the compiled plans read.
                repeat = exchange_halo(result, pattern, params, into=halo_name)
                exchanges += 1
                comm_cycles += repeat.cycles
            if exact:
                for node in machine.nodes():
                    node_cycles = node_execute_exact(
                        compiled,
                        node,
                        schedule,
                        source_name=source.name,
                        result_name=result.name,
                        halo=pad,
                    )
                    if cycles is not None and node_cycles != cycles:
                        raise AssertionError(
                            "SIMD invariant violated: nodes disagree on cycles"
                        )
                    cycles = node_cycles
            else:
                machine_execute_fast(
                    pattern,
                    machine,
                    source_name=source.name,
                    result_name=result.name,
                    halo=pad,
                )
                if iteration < iterations - 1 and _at_fixed_point(
                    machine, halo_name, result.name, pad
                ):
                    # The iterate equals its own input, so every later
                    # iteration reproduces it bit for bit; stop computing.
                    # The cost accounting still charges all iterations,
                    # exchanges included.
                    skipped = iterations - 1 - iteration
                    exchanges += skipped
                    comm_cycles += skipped * comm.cycles
                    break
    compute_cycles = cycles if exact else schedule.compute_cycles(params)

    return StencilRun(
        compiled=compiled,
        machine=machine,
        result=result,
        iterations=iterations,
        compute_cycles=compute_cycles,
        comm=comm,
        half_strips=schedule.num_half_strips,
        exact=exact,
        num_exchanges=exchanges,
        total_comm_cycles=comm_cycles,
    )
