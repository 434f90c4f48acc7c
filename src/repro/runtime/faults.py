"""Fault injection, detection, and recovery for the run-time data path.

The CM-2's memory and NEWS network were engineered around ECC and
parity because at 64K processors over hours-long runs, silent
corruption is a certainty, not a risk.  The simulated runtime models
the same reality: a seeded :class:`FaultInjector` can corrupt or drop
halo messages, flip bits in the temporal-blocking ping-pong stacks
between sub-iterations, and poison a node's tile in the fast executor
-- and a detection + recovery layer threaded through
:mod:`repro.runtime.halo`, :mod:`repro.runtime.executor`, and
:mod:`repro.runtime.stencil_op` guarantees that every injected fault is
either recovered *bit-identically* or surfaced as a typed
:class:`FaultError`.  Silent wrong numbers are the one outcome the
design rules out.

Detection:

* per-message checksums on both halo paths (shallow and deep): after
  every exchange the received bands are checksummed against what the
  senders hold;
* a parity word sealed over each sub-iteration's valid region in the
  blocked executor, verified before the next sub-iteration reads it;
* NaN/Inf guards on the fast executor's result and on each temporal
  block's output.

Recovery (in escalation order):

1. bounded retry with capped exponential backoff for failed exchanges
   and executor passes -- every attempt is charged real communication
   or compute cycles;
2. rollback to a periodic checkpoint
   (:meth:`repro.machine.memory.MachineStorage.checkpoint` /
   ``restore``) and replay of the iterations since;
3. a graceful-degradation ladder: blocked fast path -> unblocked fast
   path -> cycle-stepped exact executor.  All three rungs are bit-identical
   in float32, so stepping down changes cost, never results.

All fault, retry, checkpoint, and degradation events are accounted in a
:class:`FaultStats` carried on the resulting
:class:`~repro.runtime.stencil_op.StencilRun`, and the
:class:`FaultGuard` doubles as the chaos run's cycle accountant, so a
degraded run reports honest (lower) gigaflops.

Hard faults
-----------

Beyond the transient kinds, the injector can break *hardware*: kill a
node (``NODE_DEAD`` -- its memory is lost and it stops answering),
sever a grid link (``LINK_DOWN`` -- every message crossing it arrives
corrupted until the runtime routes around it), or degrade a node
(``NODE_SLOW`` -- it keeps computing correctly but overruns every
exchange deadline).  These conditions persist in the machine's
:class:`~repro.machine.health.MachineHealth` ledger until repaired.

The :class:`HealthMonitor` detects them from exchange behavior alone:
a dead node misses the exchange deadline and fails its probes (charged
real timeout + probe cycles, before any data moves); a dead link shows
up as repeated checksum failures on the same route, confirmed by a
probe and then routed around (each later exchange pays the detour); a
slow node overruns deadlines until enough confirmations trigger a
*live* migration.  Repair is **spare-node remapping**: when the machine
was configured with spares (``CM2(params, spares=...)``), the guard
migrates the lost logical coordinate onto a spare, rewrites the
logical->physical :class:`~repro.machine.geometry.CoordinateMap`,
restores the lost tile from the genesis + periodic checkpoints, and
replays -- bit-identically in float32.  With no spare (or an exhausted
remap budget) the run raises a typed :class:`NoSpareError`; silent
corruption remains impossible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..machine.health import link_key
from ..machine.memory import parity_word
from ..verify import lockdep
from ..verify.aliasing import ExecutionSetupError


class FaultError(Exception):
    """Base of every typed fault surfaced by the resilient runtime."""


class HaloChecksumError(FaultError):
    """A halo message's checksum did not match what the sender holds."""


class ParityError(FaultError):
    """A sealed scratch/ping-pong region failed its parity check."""


class PoisonedResultError(FaultError):
    """An executor pass produced non-finite values under guard."""


class RetryExhaustedError(FaultError):
    """An exchange kept failing verification past the retry budget."""


class NonFiniteInputError(FaultError, ExecutionSetupError):
    """An input array handed to a stencil call with
    ``check_finite=True`` contains NaN or Inf."""


class NodeDeadError(FaultError):
    """A node missed the exchange deadline and failed its probes.

    Carries the logical ``coord`` ``(row, col)`` so the recovery path
    knows which subgrid tile must be migrated onto a spare.
    """

    def __init__(self, coord: Tuple[int, int], message: str) -> None:
        super().__init__(message)
        self.coord = coord


class LinkDownError(FaultError):
    """A grid link is confirmed dead and no detour exists (the grid is
    only one node wide along the perpendicular axis)."""


class NoSpareError(FaultError):
    """A dead node needs a remap but no spare remains (the machine was
    configured without spares, the pool is empty, or the policy's remap
    budget is exhausted)."""


class SdcUncorrectableError(FaultError):
    """ABFT found residual damage it cannot forward-correct: more than
    one violated row/column checksum per tile, or mismatched residual
    masks.  The caller falls back to the checkpoint/rollback ladder."""


class FaultKind(str, Enum):
    """The injectable fault classes."""

    #: Flip one bit of one element of a received halo message.
    HALO_CORRUPT = "halo_corrupt"
    #: Drop a halo message: the destination band shows stale zeros.
    HALO_DROP = "halo_drop"
    #: Flip one bit in the just-sealed ping-pong region between two
    #: temporal-block sub-iterations.
    SCRATCH_BITFLIP = "scratch_bitflip"
    #: Overwrite one node's tile of the fast executor's result with NaN.
    NODE_POISON = "node_poison"
    #: Kill a node: its memory is lost and it stops answering exchanges.
    NODE_DEAD = "node_dead"
    #: Sever a grid link: messages crossing it arrive corrupted until
    #: the runtime routes around it.
    LINK_DOWN = "link_down"
    #: Degrade a node: results stay correct but every exchange deadline
    #: is overrun until the runtime live-migrates it to a spare.
    NODE_SLOW = "node_slow"
    #: Silent data corruption: flip mantissa/exponent bits of resident
    #: result tiles *between* parity seals, bypassing every message
    #: checksum.  Only the ABFT row/column residuals can see it, so
    #: injecting it requires ``ResiliencePolicy.abft=True``.
    SDC = "sdc"


#: The message/memory corruption kinds of PR 3: one bad datum, healed
#: by retry/rollback alone.
TRANSIENT_FAULT_KINDS: Tuple[str, ...] = (
    FaultKind.HALO_CORRUPT.value,
    FaultKind.HALO_DROP.value,
    FaultKind.SCRATCH_BITFLIP.value,
    FaultKind.NODE_POISON.value,
)

#: Persistent hardware conditions: they stay true until the machine is
#: reconfigured (spare-node remap or link reroute).
HARD_FAULT_KINDS: Tuple[str, ...] = (
    FaultKind.NODE_DEAD.value,
    FaultKind.LINK_DOWN.value,
    FaultKind.NODE_SLOW.value,
)

ALL_FAULT_KINDS: Tuple[str, ...] = tuple(kind.value for kind in FaultKind)


class ServiceFaultKind(str, Enum):
    """The service-plane fault classes: they break the *orchestration*
    layer (workers, queues, tenants), never the data path, so none of
    them can change a job's bits -- only whether and when it runs."""

    #: The worker thread running a job dies mid-flight; its partition
    #: leaks until the supervisor reclaims it and re-enqueues the job.
    WORKER_CRASH = "worker_crash"
    #: A job stops making progress: its worker blocks until the
    #: supervisor aborts it at the wall-clock deadline.
    JOB_HANG = "job_hang"
    #: One tenant floods the queue with a burst of low-priority jobs,
    #: exercising watermark shedding and admission control.
    TENANT_STORM = "tenant_storm"


SERVICE_FAULT_KINDS: Tuple[str, ...] = tuple(
    kind.value for kind in ServiceFaultKind
)


@dataclass(frozen=True)
class FaultEvent:
    """One injected or detected fault occurrence."""

    kind: str
    site: str
    injected: bool
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "site": self.site,
            "injected": self.injected,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultEvent":
        return cls(
            kind=str(data["kind"]),
            site=str(data["site"]),
            injected=bool(data["injected"]),
            detail=str(data.get("detail", "")),
        )


@dataclass
class FaultStats:
    """Complete chaos-run accounting, carried on ``StencilRun``.

    All-zero (see :meth:`all_zero`) whenever injection and guarding are
    disabled -- the default run path never touches this object.
    """

    injected: Dict[str, int] = field(default_factory=dict)
    detected: Dict[str, int] = field(default_factory=dict)
    #: Exchange attempts beyond each first try.
    retries: int = 0
    #: Cycles of every retried exchange attempt plus backoff stalls.
    retry_cycles: int = 0
    #: Elements moved by retried exchange attempts.
    retry_elements: int = 0
    #: Executor passes re-run after a detected fault.
    recomputes: int = 0
    checkpoints: int = 0
    checkpoint_cycles: int = 0
    rollbacks: int = 0
    #: Iterations (or block sub-iterations) computed more than once.
    replayed_iterations: int = 0
    #: Ladder steps taken, e.g. ``("blocked->fast", "fast->exact")``.
    degradations: Tuple[str, ...] = ()
    # --- hard-fault recovery buckets -----------------------------------
    #: Health probes sent (dead-node confirmation, link diagnosis).
    probes: int = 0
    probe_cycles: int = 0
    #: Exchange deadlines missed outright (dead participant).
    timeouts: int = 0
    #: Deadline overruns caused by a degraded (slow) participant.
    slow_overruns: int = 0
    #: Cycles lost to missed deadlines and overruns together.
    timeout_cycles: int = 0
    #: Dead links confirmed and routed around.
    reroutes: int = 0
    #: Extra-hop cycles paid by exchanges crossing rerouted links.
    detour_cycles: int = 0
    #: Dead nodes replaced by spares (checkpoint-restore migrations).
    remaps: int = 0
    #: Slow nodes replaced by spares without rollback.
    live_migrations: int = 0
    migrated_words: int = 0
    migration_cycles: int = 0
    #: Executor cycles of failed or repeated passes (recovery compute).
    recompute_cycles: int = 0
    #: Exchange cycles of replayed (post-rollback) iterations.
    replay_comm_cycles: int = 0
    #: Executor cycles of replayed (post-rollback) iterations.
    replay_compute_cycles: int = 0
    #: Half strips of failed, repeated, replayed and stepped-down passes.
    recovery_half_strips: int = 0
    # --- ABFT buckets --------------------------------------------------
    #: Row/column checksum seals taken over result stacks.
    abft_seals: int = 0
    #: Residual verifications of sealed stacks.
    abft_verifies: int = 0
    #: Cycles of seals + verifies together: the always-on ABFT overhead,
    #: a bucket of its own (NOT recovery -- it is paid even fault-free).
    abft_cycles: int = 0
    #: Corrupted words localized and forward-corrected in place.
    sdc_corrections: int = 0
    #: Cycles of those in-place corrections (recovery compute).
    sdc_correction_cycles: int = 0
    events: List[FaultEvent] = field(default_factory=list)

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    @property
    def total_detected(self) -> int:
        return sum(self.detected.values())

    def all_zero(self) -> bool:
        """True when nothing fault-related happened at all."""
        return (
            not self.injected
            and not self.detected
            and not self.events
            and not self.degradations
            and all(getattr(self, name) == 0 for name in _COUNTER_FIELDS)
        )

    def describe(self) -> str:
        parts = [
            f"{self.total_injected} injected",
            f"{self.total_detected} detected",
            f"{self.retries} retries",
            f"{self.rollbacks} rollbacks",
        ]
        if self.reroutes:
            parts.append(f"{self.reroutes} reroutes")
        if self.remaps or self.live_migrations:
            parts.append(
                f"{self.remaps + self.live_migrations} remaps"
                f" ({self.live_migrations} live)"
            )
        if self.sdc_corrections:
            parts.append(
                f"{self.sdc_corrections} forward-corrected"
            )
        if self.degradations:
            parts.append("degraded " + ", ".join(self.degradations))
        return "; ".join(parts)

    def recovery_comm_cycles(self) -> int:
        """Every communication cycle beyond the fault-free closed form:
        retries+backoff, probes, timeouts/overruns, detours, migrations,
        and replayed exchanges.  ``guard.comm_cycles`` minus this equals
        the fault-free total exactly (the reconciliation invariant
        ``StencilRun.reconciled`` checks)."""
        return (
            self.retry_cycles
            + self.probe_cycles
            + self.timeout_cycles
            + self.detour_cycles
            + self.migration_cycles
            + self.replay_comm_cycles
        )

    def recovery_compute_cycles(self) -> int:
        """Every executor cycle beyond the fault-free closed form:
        checkpoint copies, failed/repeated passes, replays, and in-place
        SDC corrections.  The always-on ABFT seal/verify overhead is
        *not* recovery -- reconcile it via :attr:`abft_cycles`."""
        return (
            self.checkpoint_cycles
            + self.recompute_cycles
            + self.replay_compute_cycles
            + self.sdc_correction_cycles
        )

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "injected": dict(self.injected),
            "detected": dict(self.detected),
            "degradations": list(self.degradations),
            "events": [event.to_dict() for event in self.events],
        }
        for name in _COUNTER_FIELDS:
            data[name] = int(getattr(self, name))
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultStats":
        stats = cls(
            injected={str(k): int(v) for k, v in data.get("injected", {}).items()},
            detected={str(k): int(v) for k, v in data.get("detected", {}).items()},
            degradations=tuple(data.get("degradations", ())),
            events=[
                FaultEvent.from_dict(event)
                for event in data.get("events", [])
            ],
        )
        for name in _COUNTER_FIELDS:
            setattr(stats, name, int(data.get(name, 0)))
        return stats


#: The plain integer tallies, in declaration order: what all_zero checks
#: and to_dict / from_dict carry beside the maps, tuple and events.
_COUNTER_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in fields(FaultStats) if f.type in ("int", int)
)


# ----------------------------------------------------------------------
# The recovery price list: modeled cycles and detection thresholds
# ----------------------------------------------------------------------

#: Stall charged before the first exchange retry; doubles per retry.
BACKOFF_BASE_CYCLES = 64
#: Ceiling of the per-retry backoff stall.
BACKOFF_CAP_CYCLES = 4096
#: Snapshotting one word per node (local memory copy bandwidth).
CHECKPOINT_CYCLES_PER_WORD = 1.0
#: Streaming one word through the ABFT row+column XOR reductions, per
#: seal and per verify: a fraction of a cycle, since the checksum rides
#: the same SIMD pass as the stencil itself.
ABFT_CYCLES_PER_WORD = 0.25
#: Localizing one corrupted word (residual intersection) and XOR-writing
#: it back.
SDC_CORRECTION_CYCLES = 64
#: Cycles an exchange waits for every participant before declaring a
#: timeout; charged in full when a dead node misses it.
EXCHANGE_DEADLINE_CYCLES = 4096
#: One health probe: a minimal round trip on the router.
PROBE_CYCLES = 256
#: Deadline overrun charged per exchange per slow participant until it
#: is live-migrated.
SLOW_OVERRUN_CYCLES = 512
#: Moving one word of a node's state onto its spare (router bandwidth,
#: cube-wise path).
MIGRATION_CYCLES_PER_WORD = 1.0
#: Unanswered probes that confirm a node dead after it misses the
#: deadline.
PROBE_ATTEMPTS = 2
#: Checksum failures on the same physical route before the monitor
#: probes the link and, if it is dead, routes around it.
LINK_FAILURE_THRESHOLD = 2
#: Deadline overruns that confirm a slow node and trigger live
#: migration.
SLOW_CONFIRMATIONS = 3


@dataclass(frozen=True)
class ResiliencePolicy:
    """The recovery budgets of the detection + recovery layer.

    What recovery costs and when a fault counts as detected are the
    module's constants (:data:`BACKOFF_BASE_CYCLES` ...); a policy sets
    only how much recovery a run may spend.

    Attributes:
        max_retries: exchange re-attempts, and re-runs of a failed
            block from its intact input, after the first try before
            escalating.
        checkpoint_interval: snapshot the live iterate at the first
            iteration at or after every multiple of this where every
            filter's block ends -- every this many iterations at depth 1
            (0 disables periodic checkpoints; rollback then replays from
            the start, where the untouched source array is the implicit
            checkpoint).
        max_replays: rollback-and-replay attempts per run, at every
            block depth, before the ladder steps down a rung.
        abft: maintain row/column XOR checksum vectors over the result
            stack and verify them once per block (per iteration at
            depth 1).  A single corrupted word is localized by
            intersecting the violated row and column residuals and
            corrected in place -- forward recovery, zero rollback,
            zero replay; multi-cell damage falls back to the
            checkpoint/rollback ladder, so ``abft=True`` requires
            ``max_replays >= 1``.
        max_remaps: spare-node remaps (dead-node migrations plus live
            migrations) allowed per run before :class:`NoSpareError`.

    All fields are validated at construction; nonsense values (negative
    retries, ...) raise :class:`ValueError` immediately instead of
    misbehaving mid-recovery.
    """

    max_retries: int = 3
    checkpoint_interval: int = 4
    max_replays: int = 2
    abft: bool = False
    max_remaps: int = 2

    def __post_init__(self) -> None:
        def require(ok: bool, what: str) -> None:
            if not ok:
                raise ValueError(f"ResiliencePolicy: {what}")

        require(self.max_retries >= 0,
                f"max_retries must be >= 0, got {self.max_retries}")
        require(self.checkpoint_interval >= 0,
                f"checkpoint_interval must be >= 0 (0 disables periodic "
                f"checkpoints), got {self.checkpoint_interval}")
        require(self.max_replays >= 0,
                f"max_replays must be >= 0, got {self.max_replays}")
        require(not (self.abft and self.max_replays == 0),
                "contradictory knobs: abft=True needs the rollback "
                "ladder as its multi-cell fallback, but max_replays=0 "
                "disables it; set max_replays >= 1 or abft=False")
        require(self.max_remaps >= 0,
                f"max_remaps must be >= 0, got {self.max_remaps}")


@dataclass(frozen=True)
class HardFaultSpec:
    """One scripted hard fault: break this hardware at that exchange.

    ``at_exchange`` counts guarded exchanges (shallow and deep alike)
    from 0; ``(row, col)`` is the victim's *logical* coordinate.  For
    ``LINK_DOWN``, ``direction`` names which of the node's four grid
    links dies (``"N"``/``"S"``/``"W"``/``"E"``).
    """

    kind: str
    at_exchange: int
    row: int
    col: int
    direction: Optional[str] = None

    def __post_init__(self) -> None:
        kind = FaultKind(self.kind).value
        if kind not in HARD_FAULT_KINDS:
            raise ValueError(
                f"HardFaultSpec kind must be a hard fault "
                f"{HARD_FAULT_KINDS}, got {self.kind!r}"
            )
        if self.at_exchange < 0:
            raise ValueError(
                f"at_exchange must be >= 0, got {self.at_exchange}"
            )
        if kind == FaultKind.LINK_DOWN.value:
            if self.direction not in ("N", "S", "W", "E"):
                raise ValueError(
                    f"LINK_DOWN needs direction 'N'/'S'/'W'/'E', "
                    f"got {self.direction!r}"
                )
        elif self.direction is not None:
            raise ValueError(
                f"direction only applies to link_down, got "
                f"{self.direction!r} for {kind}"
            )


class FaultInjector:
    """A deterministic, seeded source of run-time data-path faults.

    ``rates`` maps fault kinds (:class:`FaultKind` or their string
    values) to per-opportunity probabilities.  Every draw comes from one
    ``numpy`` generator seeded with ``seed``, and the runtime consults
    the injector at a fixed sequence of sites, so a chaos run is exactly
    reproducible: same seed, same faults, same recovery path.
    ``max_faults`` bounds the total injections (None = unbounded).
    ``sdc_cells`` is how many words one SDC strike corrupts: 1 (the
    default) is the forward-correctable case; more forces the
    multi-cell damage that exercises the rollback fallback.
    """

    def __init__(
        self,
        seed: int = 0,
        rates: Optional[Dict[object, float]] = None,
        max_faults: Optional[int] = None,
        schedule: Sequence[HardFaultSpec] = (),
        sdc_cells: int = 1,
    ) -> None:
        self.seed = int(seed)
        self.sdc_cells = max(1, int(sdc_cells))
        self.rates: Dict[FaultKind, float] = {}
        for kind, rate in (rates or {}).items():
            self.rates[FaultKind(kind)] = float(rate)
        self.max_faults = max_faults
        self.schedule: Tuple[HardFaultSpec, ...] = tuple(schedule)
        self._rng = np.random.default_rng(self.seed)
        self.injected: Dict[str, int] = {}
        self.events: List[FaultEvent] = []
        #: Guarded exchanges seen so far (the clock scripted hard
        #: faults are keyed on).
        self.exchange_index = 0

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def _fires(self, kind: FaultKind) -> bool:
        rate = self.rates.get(kind, 0.0)
        if rate <= 0.0:
            return False
        if self.max_faults is not None and self.total_injected >= self.max_faults:
            return False
        return bool(self._rng.random() < rate)

    def _record(self, kind: FaultKind, site: str, detail: str) -> FaultEvent:
        event = FaultEvent(
            kind=kind.value, site=site, injected=True, detail=detail
        )
        self.injected[kind.value] = self.injected.get(kind.value, 0) + 1
        self.events.append(event)
        return event

    def _flip_bit(self, region: np.ndarray) -> str:
        """Flip one random bit of one element, in place."""
        index = np.unravel_index(
            int(self._rng.integers(region.size)), region.shape
        )
        bit = int(self._rng.integers(32))
        # A same-itemsize view aliases the region's memory even when it
        # is a non-contiguous slice of a larger stack.
        words = region.view(np.uint32)
        words[index] ^= np.uint32(1 << bit)
        return f"bit {bit} at {tuple(int(i) for i in index)}"

    # ------------------------------------------------------------------
    # Injection sites
    # ------------------------------------------------------------------

    def inject_halo(
        self, regions: Sequence[Tuple[str, np.ndarray]]
    ) -> List[FaultEvent]:
        """Corrupt and/or drop at most one halo message each.

        ``regions`` are the just-received message bands of one exchange,
        as ``(label, writable view)`` pairs.
        """
        events: List[FaultEvent] = []
        if self._fires(FaultKind.HALO_CORRUPT) and regions:
            label, region = regions[int(self._rng.integers(len(regions)))]
            if region.size:
                detail = self._flip_bit(region)
                events.append(
                    self._record(FaultKind.HALO_CORRUPT, label, detail)
                )
        if self._fires(FaultKind.HALO_DROP) and regions:
            label, region = regions[int(self._rng.integers(len(regions)))]
            if region.size:
                region[...] = 0.0
                events.append(
                    self._record(
                        FaultKind.HALO_DROP, label, "message never arrived"
                    )
                )
        return events

    def inject_scratch(
        self, buffers: Sequence[Tuple[str, np.ndarray]]
    ) -> List[FaultEvent]:
        """Maybe flip one bit in one of ``buffers`` (the blocked
        executor offers the ping-pong region it just sealed)."""
        events: List[FaultEvent] = []
        if self._fires(FaultKind.SCRATCH_BITFLIP) and buffers:
            label, buffer = buffers[int(self._rng.integers(len(buffers)))]
            if buffer.size:
                detail = self._flip_bit(buffer)
                events.append(
                    self._record(FaultKind.SCRATCH_BITFLIP, label, detail)
                )
        return events

    def inject_sdc(
        self, regions: Sequence[Tuple[str, np.ndarray]]
    ) -> List[FaultEvent]:
        """Maybe silently corrupt a resident result stack.

        One strike flips one random mantissa/exponent bit in each of
        ``sdc_cells`` random words of one region -- after the executor
        ran and after every message checksum was checked, so nothing
        but the ABFT residuals can notice.  The sign bit (31) is never
        flipped: the paper's fault model is particle strikes on the
        FPU datapath and significand/exponent latches.
        """
        events: List[FaultEvent] = []
        if self._fires(FaultKind.SDC) and regions:
            label, region = regions[int(self._rng.integers(len(regions)))]
            if region.size:
                words = region.view(np.uint32)
                details = []
                for _ in range(self.sdc_cells):
                    index = np.unravel_index(
                        int(self._rng.integers(region.size)), region.shape
                    )
                    bit = int(self._rng.integers(31))
                    words[index] ^= np.uint32(1 << bit)
                    details.append(
                        f"bit {bit} at {tuple(int(i) for i in index)}"
                    )
                events.append(
                    self._record(FaultKind.SDC, label, "; ".join(details))
                )
        return events

    def inject_poison(self, result_stack: np.ndarray) -> List[FaultEvent]:
        """Maybe poison (NaN) one node's tile of a result stack.

        The node-grid axes sit at ``-4``/``-3``, so batched stacks with
        leading (batch, filter) axes poison the node's tile in *every*
        copy -- a dead FPU corrupts whatever it was computing.
        """
        events: List[FaultEvent] = []
        if self._fires(FaultKind.NODE_POISON):
            grid_rows, grid_cols = result_stack.shape[-4:-2]
            row = int(self._rng.integers(grid_rows))
            col = int(self._rng.integers(grid_cols))
            result_stack[..., row, col, :, :] = np.float32(np.nan)
            events.append(
                self._record(
                    FaultKind.NODE_POISON,
                    f"node({row},{col})",
                    "tile overwritten with NaN",
                )
            )
        return events

    def inject_hard(self, machine, site: str) -> List[FaultEvent]:
        """Maybe break hardware, at the start of one guarded exchange.

        Applies any scheduled :class:`HardFaultSpec` whose clock has
        come, then rolls the per-exchange dice for each hard kind with a
        configured rate.  Conditions land in ``machine.health`` (and a
        killed node's memory really is lost: its tile of every
        distributed stack is overwritten with NaN).
        """
        index = self.exchange_index
        self.exchange_index += 1
        events: List[FaultEvent] = []
        for spec in self.schedule:
            if spec.at_exchange == index:
                events.extend(
                    self._break_hardware(
                        machine,
                        FaultKind(spec.kind),
                        victim=(spec.row, spec.col, spec.direction),
                    )
                )
        for kind in (
            FaultKind.NODE_DEAD,
            FaultKind.LINK_DOWN,
            FaultKind.NODE_SLOW,
        ):
            if self._fires(kind):
                events.extend(self._break_hardware(machine, kind, None))
        return events

    def _break_hardware(
        self,
        machine,
        kind: FaultKind,
        victim: Optional[Tuple[int, int, Optional[str]]],
    ) -> List[FaultEvent]:
        grid_rows, grid_cols = machine.shape
        health = machine.health
        if kind in (FaultKind.NODE_DEAD, FaultKind.NODE_SLOW):
            if victim is None:
                row = int(self._rng.integers(grid_rows))
                col = int(self._rng.integers(grid_cols))
            else:
                row, col = victim[0] % grid_rows, victim[1] % grid_cols
            phys = machine.physical_id(row, col)
            if kind is FaultKind.NODE_DEAD:
                if health.node_dead(phys):
                    return []
                health.mark_node_dead(phys)
                self._trash_node_memory(machine, row, col)
                detail = f"physical node {phys} died; tile memory lost"
            else:
                if health.node_dead(phys) or health.node_slow(phys):
                    return []
                health.mark_node_slow(phys)
                detail = f"physical node {phys} degraded"
            return [self._record(kind, f"node({row},{col})", detail)]
        # LINK_DOWN: pick (or take) a node and one of its grid links.
        directions = []
        if grid_rows >= 2:
            directions.extend(["N", "S"])
        if grid_cols >= 2:
            directions.extend(["W", "E"])
        if victim is None:
            if not directions:
                return []
            row = int(self._rng.integers(grid_rows))
            col = int(self._rng.integers(grid_cols))
            direction = directions[int(self._rng.integers(len(directions)))]
        else:
            row, col = victim[0] % grid_rows, victim[1] % grid_cols
            direction = victim[2]
            if direction not in directions:
                return []
        if direction == "N":
            nbr, orientation = ((row - 1) % grid_rows, col), "v"
        elif direction == "S":
            nbr, orientation = ((row + 1) % grid_rows, col), "v"
        elif direction == "W":
            nbr, orientation = (row, (col - 1) % grid_cols), "h"
        else:
            nbr, orientation = (row, (col + 1) % grid_cols), "h"
        phys_a = machine.physical_id(row, col)
        phys_b = machine.physical_id(*nbr)
        if phys_a == phys_b or health.link_dead(phys_a, phys_b):
            return []
        health.mark_link_dead(phys_a, phys_b, orientation)
        lo, hi = sorted((phys_a, phys_b))
        return [
            self._record(
                FaultKind.LINK_DOWN,
                f"link node({row},{col}).{direction}",
                f"physical link {lo}<->{hi} severed",
            )
        ]

    def _trash_node_memory(self, machine, row: int, col: int) -> None:
        """A dead node's memory is gone: NaN its tile everywhere
        (batched stacks lose every leading-axis copy of the tile)."""
        for _, stack in machine.storage.distinct(scratch=True):
            stack[..., row, col, :, :] = np.float32(np.nan)


class ServiceFaultInjector:
    """A deterministic, seeded source of service-plane faults.

    ``rates`` maps :class:`ServiceFaultKind` (or their string values)
    to per-opportunity probabilities.  Unlike the data-path injector,
    draws must be reproducible under *concurrency*: worker threads
    consult the injector in whatever order the host schedules them, so
    a shared RNG stream would make chaos runs unrepeatable.  Every draw
    is therefore a pure function of ``(seed, kind, site, attempt)`` --
    hashed independently -- and a campaign re-run with the same seed
    sees exactly the same crashes and hangs at the same jobs no matter
    how the threads interleave.  ``max_faults`` bounds total
    injections (None = unbounded).

    Lock discipline: the mutable tallies (``injected``, ``events``) are
    guarded by ``_lock``; the draw itself is pure.  Workers consult the
    injector outside the scheduler's condition lock, and the injector
    calls nothing that locks -- a leaf of the lock graph.
    """

    def __init__(
        self,
        seed: int = 0,
        rates: Optional[Dict[object, float]] = None,
        max_faults: Optional[int] = None,
    ) -> None:
        self.seed = int(seed)
        self.rates: Dict[ServiceFaultKind, float] = {}
        for kind, rate in (rates or {}).items():
            self.rates[ServiceFaultKind(kind)] = float(rate)
        self.max_faults = max_faults
        self.injected: Dict[str, int] = {}  # guarded-by: _lock
        self.events: List[FaultEvent] = []  # guarded-by: _lock
        self._lock = lockdep.lock("ServiceFaultInjector._lock")

    @property
    def total_injected(self) -> int:
        with self._lock:
            return sum(self.injected.values())

    def _draw(self, kind: str, site: str, attempt: int) -> float:
        """A uniform in [0, 1) determined solely by the coordinates."""
        digest = hashlib.sha256(
            f"{self.seed}:{kind}:{site}:{attempt}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64

    def fires(self, kind: object, site: str, attempt: int = 1) -> bool:
        """One seeded draw for ``kind`` at ``site`` (e.g. a job key) on
        this ``attempt``; records the event when it fires."""
        fault = ServiceFaultKind(kind)
        rate = self.rates.get(fault, 0.0)
        if rate <= 0.0:
            return False
        with self._lock:
            if (
                self.max_faults is not None
                and sum(self.injected.values()) >= self.max_faults
            ):
                return False
            if self._draw(fault.value, site, attempt) >= rate:
                return False
            self.injected[fault.value] = self.injected.get(fault.value, 0) + 1
            self.events.append(
                FaultEvent(
                    kind=fault.value,
                    site=site,
                    injected=True,
                    detail=f"attempt {attempt}",
                )
            )
            return True

    def storm_size(self, site: str, low: int = 4, high: int = 12) -> int:
        """Burst size of a tenant storm at ``site``: 0 when the
        TENANT_STORM draw does not fire, else a seeded size in
        ``[low, high]``."""
        if not self.fires(ServiceFaultKind.TENANT_STORM, site):
            return 0
        span = max(high - low, 0) + 1
        return low + int(self._draw("tenant_storm_size", site, 0) * span)


class HealthMonitor:
    """Detects persistent hardware faults from exchange behavior alone.

    The monitor never reads the injector or the health ledger's cause --
    it sees only what a real runtime would: a participant that misses
    the exchange deadline and ignores probes (dead node), checksum
    failures that keep landing on the same physical route (dead link),
    a participant that answers late every time (slow node).  Detection
    charges honest cycles through the guard (timeouts, probes,
    overruns), and repair actions (reroute, live migration) are
    recorded both in the health ledger and in the guard's tallies.
    """

    def __init__(self, machine, guard: "FaultGuard") -> None:
        self.machine = machine
        self.guard = guard
        #: Consecutive checksum failures per physical route.
        self.route_failures: Dict[FrozenSet[int], int] = {}
        #: Deadline overruns per slow physical node.
        self.slow_overruns: Dict[int, int] = {}
        #: Slow nodes already confirmed (migrated or limping).
        self.confirmed_slow: set = set()

    # ------------------------------------------------------------------
    # Deadline checks (before an exchange moves any data)
    # ------------------------------------------------------------------

    def check_participants(self, site: str) -> None:
        """Enforce the exchange deadline on every participant.

        A dead participant costs the full deadline plus its unanswered
        probes and raises :class:`NodeDeadError` -- no data moves and no
        exchange is charged.  Slow participants overrun the deadline
        (charged per exchange) until confirmed and live-migrated.
        """
        machine, guard = self.machine, self.guard
        lost = machine.lost_coords()
        if lost:
            coord = lost[0]
            guard.charge_timeout()
            guard.charge_probes(PROBE_ATTEMPTS)
            guard.note_detected(
                FaultKind.NODE_DEAD.value,
                site,
                f"node({coord.row},{coord.col}) missed the exchange "
                f"deadline; {PROBE_ATTEMPTS} probes unanswered",
            )
            raise NodeDeadError(
                (coord.row, coord.col),
                f"node({coord.row},{coord.col}) is dead (deadline + "
                f"probes unanswered during {site})",
            )
        for coord in machine.slow_coords():
            phys = machine.physical_id(coord.row, coord.col)
            guard.charge_slow_overrun()
            if phys in self.confirmed_slow:
                continue
            overruns = self.slow_overruns.get(phys, 0) + 1
            self.slow_overruns[phys] = overruns
            if overruns >= SLOW_CONFIRMATIONS:
                self.confirmed_slow.add(phys)
                guard.note_detected(
                    FaultKind.NODE_SLOW.value,
                    site,
                    f"node({coord.row},{coord.col}) overran "
                    f"{overruns} consecutive deadlines",
                )
                # Live migration: the node still answers, so its state
                # is intact in the logical stacks -- remap without any
                # rollback.  No spare / no budget => keep limping (the
                # results stay correct; every exchange pays the
                # overrun).
                if (
                    self.machine.spares_remaining > 0
                    and guard.remap_budget_left()
                ):
                    guard.perform_remap((coord.row, coord.col), live=True)

    # ------------------------------------------------------------------
    # Route diagnosis (after checksum verification fails)
    # ------------------------------------------------------------------

    def observe_route_failures(self, routes, site: str) -> bool:
        """Account checksum failures against their physical routes.

        ``routes`` is an iterable of ``((recv_row, recv_col),
        (send_row, send_col))`` logical pairs whose bands failed
        verification.  When one route accumulates
        :data:`LINK_FAILURE_THRESHOLD` failures the monitor probes it
        (charged); a genuinely dead link is routed around (every later
        crossing pays the detour) or, when the grid is only one node
        wide along the detour axis, surfaces as
        :class:`LinkDownError`.  Returns True when a new reroute was
        established (the next retry should succeed).
        """
        machine, guard = self.machine, self.guard
        health = machine.health
        rerouted = False
        for recv, send in routes:
            phys_a = machine.physical_id(*recv)
            phys_b = machine.physical_id(*send)
            if phys_a == phys_b:
                continue
            key = link_key(phys_a, phys_b)
            if key in health.rerouted_links:
                continue
            failures = self.route_failures.get(key, 0) + 1
            self.route_failures[key] = failures
            if failures < LINK_FAILURE_THRESHOLD:
                continue
            guard.charge_probes(1)
            if not health.link_dead(phys_a, phys_b):
                # The probe came back clean: coincident transient
                # corruption, not a hardware condition.
                self.route_failures[key] = 0
                continue
            lo, hi = sorted((phys_a, phys_b))
            orientation = health.dead_links[key].orientation
            no_detour = (
                orientation == "h" and machine.grid_rows < 2
            ) or (orientation == "v" and machine.grid_cols < 2)
            if no_detour:
                guard.note_detected(
                    FaultKind.LINK_DOWN.value,
                    site,
                    f"link {lo}<->{hi} confirmed dead; no detour on a "
                    f"{machine.grid_rows}x{machine.grid_cols} grid",
                )
                raise LinkDownError(
                    f"link {lo}<->{hi} is dead and the "
                    f"{machine.grid_rows}x{machine.grid_cols} node grid "
                    f"has no route around it"
                )
            health.mark_link_rerouted(phys_a, phys_b)
            guard.stats.reroutes += 1
            guard.note_detected(
                FaultKind.LINK_DOWN.value,
                site,
                f"link {lo}<->{hi} confirmed dead after {failures} "
                f"checksum failures; routed around",
            )
            rerouted = True
        return rerouted


class FaultGuard:
    """One chaos run's policy, injector, detection state, and tallies.

    The guard is threaded through the halo exchange, the executors, and
    the iteration drivers.  It plays two roles: the *detection* hooks
    (injection passthroughs, checksum/parity bookkeeping) and the
    *accountant* -- under guard, every exchange attempt, executor pass,
    backoff stall, checkpoint copy, and replay is charged here, and the
    final :class:`~repro.runtime.batch.StencilRun` totals are read from
    these tallies; the record keeps the closed-form fault-free totals
    beside them and checks the two accounts against each other
    (``StencilRun.reconciled``).
    """

    def __init__(
        self,
        policy: Optional[ResiliencePolicy] = None,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        self.policy = policy or ResiliencePolicy()
        self.injector = injector
        if (
            self.injector is not None
            and self.injector.rates.get(FaultKind.SDC, 0.0) > 0.0
            and not self.policy.abft
        ):
            raise ValueError(
                "FaultInjector has a FaultKind.SDC rate but "
                "ResiliencePolicy.abft is False: silent corruption "
                "would go undetected and break the bit-identical "
                "contract; enable abft=True (or drop the sdc rate)"
            )
        self.stats = FaultStats()
        #: Which exchange counter the next charge lands on.
        self.role = "source"
        self.exchanges = 0
        self.coeff_exchanges = 0
        self.comm_cycles = 0
        self.compute_cycles = 0
        self.half_strips = 0
        #: Hard-fault machinery, armed by :meth:`attach_machine`.
        self.machine = None
        self.monitor: Optional[HealthMonitor] = None
        #: Genesis checkpoint (source + coefficients) taken when the
        #: machine has spares; the reference a remap restores from.
        self.genesis = None
        #: True while re-running work already charged once (a
        #: rollback's replay, a block's re-exchange): charges land in
        #: the replay buckets instead of the closed-form counters.
        self.replaying = False
        self._remaps_used = 0

    def attach_machine(self, machine) -> None:
        """Arm hard-fault detection and recovery against ``machine``."""
        self.machine = machine
        self.monitor = HealthMonitor(machine, self)

    def begin_exchange(self, site: str) -> None:
        """The hard-fault window at the start of one guarded exchange:
        the injector may break hardware now, and the monitor checks
        every participant against the exchange deadline (raising
        :class:`NodeDeadError` before any data moves)."""
        if self.machine is None:
            return
        if self.injector is not None:
            self._absorb(self.injector.inject_hard(self.machine, site))
        if self.monitor is not None:
            self.monitor.check_participants(site)

    # ------------------------------------------------------------------
    # Injection passthroughs (no-ops without an injector)
    # ------------------------------------------------------------------

    def inject_halo(self, regions: Sequence[Tuple[str, np.ndarray]]) -> None:
        if self.injector is not None:
            self._absorb(self.injector.inject_halo(regions))

    def inject_scratch(
        self, buffers: Sequence[Tuple[str, np.ndarray]]
    ) -> None:
        if self.injector is not None:
            self._absorb(self.injector.inject_scratch(buffers))

    def inject_poison(self, result_stack: np.ndarray) -> None:
        if self.injector is not None:
            self._absorb(self.injector.inject_poison(result_stack))

    def inject_sdc(self, regions: Sequence[Tuple[str, np.ndarray]]) -> None:
        if self.injector is not None:
            self._absorb(self.injector.inject_sdc(regions))

    def _absorb(self, events: List[FaultEvent]) -> None:
        for event in events:
            self.stats.injected[event.kind] = (
                self.stats.injected.get(event.kind, 0) + 1
            )
            self.stats.events.append(event)

    # ------------------------------------------------------------------
    # Detection bookkeeping
    # ------------------------------------------------------------------

    def note_detected(self, channel: str, site: str, detail: str = "") -> None:
        self.stats.detected[channel] = self.stats.detected.get(channel, 0) + 1
        self.stats.events.append(
            FaultEvent(kind=channel, site=site, injected=False, detail=detail)
        )

    def note_rollback(self, replayed_iterations: int) -> None:
        self.stats.rollbacks += 1
        self.stats.replayed_iterations += int(replayed_iterations)

    def note_recompute(self) -> None:
        self.stats.recomputes += 1

    def note_degradation(self, step: str) -> None:
        self.stats.degradations = self.stats.degradations + (step,)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def charge_exchange(self, stats, *, retry: bool) -> None:
        """Charge one exchange attempt (``stats`` is its CommStats)."""
        self.comm_cycles += stats.cycles
        if retry:
            self.stats.retries += 1
            self.stats.retry_cycles += stats.cycles
            self.stats.retry_elements += stats.total_elements
        elif self.replaying:
            self.stats.replay_comm_cycles += stats.cycles
        elif self.role == "coeff":
            self.coeff_exchanges += 1
        else:
            self.exchanges += 1

    def charge_backoff(self, attempt: int) -> None:
        """The capped exponential stall before retry ``attempt``
        (1-based)."""
        cycles = min(
            BACKOFF_BASE_CYCLES << max(attempt - 1, 0), BACKOFF_CAP_CYCLES
        )
        self.comm_cycles += cycles
        self.stats.retry_cycles += cycles

    def charge_compute(
        self, cycles: int, half_strips: int, *, recovery: bool = False
    ) -> None:
        cycles, half_strips = int(cycles), int(half_strips)
        self.compute_cycles += cycles
        self.half_strips += half_strips
        if recovery:
            self.stats.recompute_cycles += cycles
        elif self.replaying:
            self.stats.replay_compute_cycles += cycles
        if recovery or self.replaying:
            self.stats.recovery_half_strips += half_strips

    def charge_skipped_exchanges(self, count: int, cycles_each: int) -> None:
        """Fixed-point short-circuit: the accounting still charges the
        remaining iterations' exchanges, exactly like the unguarded
        path."""
        self.exchanges += count
        self.comm_cycles += count * cycles_each

    def charge_checkpoint(self, words_per_node: int) -> None:
        cycles = int(words_per_node * CHECKPOINT_CYCLES_PER_WORD)
        self.stats.checkpoints += 1
        self.stats.checkpoint_cycles += cycles
        self.compute_cycles += cycles

    def charge_abft(
        self, words_per_node: int, *, seals: int = 0, verifies: int = 0
    ) -> None:
        """Charge one ABFT seal or verify pass over ``words_per_node``
        words.  The cost lands in the dedicated ``abft_cycles`` bucket
        (always-on overhead, paid fault-free too), never in the
        recovery buckets -- reconciliation adds it explicitly."""
        cycles = int(words_per_node * ABFT_CYCLES_PER_WORD)
        self.stats.abft_seals += seals
        self.stats.abft_verifies += verifies
        self.stats.abft_cycles += cycles
        self.compute_cycles += cycles

    def charge_sdc_correction(self, cells: int) -> None:
        """Charge ``cells`` in-place forward corrections (recovery
        compute: localization intersect + one XOR write-back each)."""
        cycles = int(cells) * SDC_CORRECTION_CYCLES
        self.stats.sdc_corrections += int(cells)
        self.stats.sdc_correction_cycles += cycles
        self.compute_cycles += cycles

    # ------------------------------------------------------------------
    # Hard-fault charging and repair
    # ------------------------------------------------------------------

    def charge_timeout(self) -> None:
        """One missed exchange deadline (a dead participant)."""
        cycles = EXCHANGE_DEADLINE_CYCLES
        self.comm_cycles += cycles
        self.stats.timeouts += 1
        self.stats.timeout_cycles += cycles

    def charge_probes(self, count: int = 1) -> None:
        cycles = count * PROBE_CYCLES
        self.comm_cycles += cycles
        self.stats.probes += count
        self.stats.probe_cycles += cycles

    def charge_slow_overrun(self) -> None:
        """One deadline overrun by a degraded (slow) participant."""
        cycles = SLOW_OVERRUN_CYCLES
        self.comm_cycles += cycles
        self.stats.slow_overruns += 1
        self.stats.timeout_cycles += cycles

    def charge_detour(self, cycles: int) -> None:
        """Extra-hop cost of one rerouted link in one exchange."""
        self.comm_cycles += int(cycles)
        self.stats.detour_cycles += int(cycles)

    def reclaim_exchange(self, cycles: int) -> None:
        """Rollback reclassification: the iteration (or block) being
        rolled back already charged its successful exchange to the
        canonical counters; move that charge into the replay bucket so
        the replayed re-exchange can be charged canonically exactly
        once.  Keeps ``exchanges`` equal to the closed-form count, so
        guard totals reconcile as ``closed form + recovery buckets``."""
        if self.role == "coeff":
            self.coeff_exchanges -= 1
        else:
            self.exchanges -= 1
        self.stats.replay_comm_cycles += int(cycles)

    def reclaim_rung(self) -> None:
        """Ladder step-down: every canonical charge so far is the failed
        rung's (earlier rungs were reclaimed at their own step-down),
        and the next rung restarts from the source and charges the
        closed form again, so they all move into the replay buckets."""
        stats = self.stats
        stats.recovery_half_strips = self.half_strips
        stats.replay_comm_cycles += (
            self.comm_cycles - stats.recovery_comm_cycles()
        )
        stats.replay_compute_cycles += (
            self.compute_cycles
            - stats.recovery_compute_cycles()
            - stats.abft_cycles
        )
        self.exchanges = self.coeff_exchanges = 0

    def reclaim_compute(self, cycles: int, half_strips: int) -> None:
        """The compute counterpart of :meth:`reclaim_exchange`: a pass
        completed in the iteration being rolled back moves into the
        replay buckets, since its re-run charges canonically."""
        self.stats.replay_compute_cycles += int(cycles)
        self.stats.recovery_half_strips += int(half_strips)

    def remap_budget_left(self) -> bool:
        return self._remaps_used < self.policy.max_remaps

    def perform_remap(self, coord: Tuple[int, int], live: bool = False) -> None:
        """Migrate logical ``coord`` onto a spare and charge it.

        ``live=False`` is the dead-node path (the caller restores the
        lost tile from checkpoints afterwards); ``live=True`` is the
        slow-node path (state is intact, no rollback needed).  Raises
        :class:`NoSpareError` when no spare remains or the policy's
        remap budget is spent -- the typed error the no-spare
        acceptance criterion demands.
        """
        machine = self.machine
        row, col = coord
        if not self.remap_budget_left():
            raise NoSpareError(
                f"remap budget exhausted ({self.policy.max_remaps}); "
                f"cannot replace node({row},{col})"
            )
        if machine.spares_remaining == 0:
            raise NoSpareError(
                f"no spare node available to replace node({row},{col})"
            )
        words = machine.migration_words()
        machine.remap_node(row, col)
        self._remaps_used += 1
        cycles = int(words * MIGRATION_CYCLES_PER_WORD)
        self.comm_cycles += cycles
        self.stats.migrated_words += words
        self.stats.migration_cycles += cycles
        if live:
            self.stats.live_migrations += 1
        else:
            self.stats.remaps += 1
        new_phys = machine.physical_id(row, col)
        verb = "live-migrated" if live else "remapped"
        self.stats.events.append(
            FaultEvent(
                kind="remap",
                site=f"node({row},{col})",
                injected=False,
                detail=f"{verb} onto physical node {new_phys} "
                f"({words} words)",
            )
        )
        self.note_degradation(f"remap[node({row},{col})->phys{new_phys}]")

    def recover_dead_node(self, coord: Tuple[int, int]) -> None:
        """The full dead-node repair: remap onto a spare, then restore
        the migrated tile's contents from the genesis checkpoint
        (source + coefficients; the caller separately restores the
        iterate from its periodic checkpoint and replays)."""
        self.perform_remap(coord, live=False)
        if self.genesis is not None:
            self.machine.storage.restore(self.genesis)

    # ------------------------------------------------------------------
    # Shared checks
    # ------------------------------------------------------------------

    def verify_parity(self, region: np.ndarray, sealed: int, site: str) -> None:
        """Raise :class:`ParityError` when ``region`` no longer matches
        its sealed parity word."""
        if parity_word(region) != sealed:
            self.note_detected("parity", site)
            raise ParityError(f"parity mismatch in {site}")

    def verify_finite(self, region: np.ndarray, site: str) -> None:
        """Raise :class:`PoisonedResultError` on NaN/Inf under guard.
        Legitimately overflowing data trips it too; recovery then
        degrades to the exact rung, whose output is trusted verbatim --
        results stay bit-identical, only the run's cost grows."""
        if not np.isfinite(region).all():
            self.note_detected("non_finite", site)
            raise PoisonedResultError(f"non-finite values in {site}")
