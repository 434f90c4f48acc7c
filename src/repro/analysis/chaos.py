"""Seeded hard-fault survival campaigns: the ``repro chaos`` engine.

A *campaign* sweeps the stencil gallery across boundary modes and
execution modes, running every combination under a seeded
:class:`~repro.runtime.faults.FaultInjector` on a machine configured
with spare nodes, and scores each trial against three properties:

``survived``
    The run completed and its result is bit-identical (float32) to the
    fault-free reference -- hard faults included, because a dead node is
    remapped onto a spare and its state migrated back.  A run that ends
    in a *typed* ``FaultError`` did not survive but also did not lie;
    only a silent mismatch is a property violation, and
    :func:`run_campaign` treats one as fatal.

``reconciled``
    The run's charged totals decompose exactly as
    ``fault-free closed form + recovery buckets``
    (:meth:`~repro.runtime.faults.FaultStats.recovery_comm_cycles` /
    :meth:`~repro.runtime.faults.FaultStats.recovery_compute_cycles`).
    Skipped (None) when the run degraded to a different execution rung
    mid-flight, because the closed form of the original rung no longer
    describes the canonical work performed.

``typed_error``
    When the run raised, the error was a typed ``FaultError`` subclass
    (never a bare crash, never silent corruption).

The report serializes to JSON (``repro chaos --json``), events and
stats streams included, and round-trips through
:meth:`ChaosReport.from_dict`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..compiler.driver import compile_stencil
from ..machine.machine import CM2
from ..machine.params import MachineParams
from ..runtime.cm_array import CMArray
from ..runtime.faults import (
    FaultError,
    FaultInjector,
    FaultStats,
    HardFaultSpec,
    ResiliencePolicy,
)
from ..runtime.batch import apply_stencil_batch
from ..runtime.stencil_op import apply_stencil
from ..stencil import gallery
from ..stencil.offsets import BoundaryMode
from ..stencil.pattern import pattern_from_offsets

#: Execution modes a campaign sweeps: (name, apply_stencil kwargs).
EXECUTION_MODES: Tuple[Tuple[str, Dict[str, object]], ...] = (
    ("blocked", {"block_depth": 3}),
    ("fast", {}),
    ("exact", {"exact": True}),
)

#: Gallery patterns a default campaign covers.
DEFAULT_PATTERNS: Tuple[str, ...] = (
    "cross5",
    "cross9",
    "square9",
    "diamond13",
    "asymmetric5",
)

#: Default per-exchange hard-fault rates: low enough that a seeded run
#: sees zero or a few hardware deaths, high enough that a five-seed
#: campaign exercises every kind.  A pinch of transient corruption keeps
#: the retry path honest alongside the remap path.
DEFAULT_RATES: Dict[str, float] = {
    "node_dead": 0.03,
    "link_down": 0.03,
    "node_slow": 0.03,
    "halo_corrupt": 0.05,
}


def boundary_variant(pattern, mode: str, fill_value: float = 1.5):
    """The gallery pattern rebuilt under a boundary mode (same taps)."""
    modes = {
        "torus": {1: BoundaryMode.CIRCULAR, 2: BoundaryMode.CIRCULAR},
        "fill": {1: BoundaryMode.FILL, 2: BoundaryMode.FILL},
    }[mode]
    return pattern_from_offsets(
        [tap.offset for tap in pattern.taps],
        name=f"{pattern.name}_{mode}",
        boundary=modes,
        fill_value=fill_value,
    )


@dataclass
class ChaosTrial:
    """One campaign cell: a (stencil, boundary, mode, seed) run."""

    stencil: str
    boundary: str
    mode: str
    seed: int
    survived: bool
    outcome: str  # "identical", "typed_error:<Name>", or "MISMATCH"
    reconciled: Optional[bool]
    injected: int
    detected: int
    stats: FaultStats = field(default_factory=FaultStats)

    @property
    def silent_corruption(self) -> bool:
        return self.outcome == "MISMATCH"

    def to_dict(self) -> Dict[str, object]:
        return {
            "stencil": self.stencil,
            "boundary": self.boundary,
            "mode": self.mode,
            "seed": self.seed,
            "survived": self.survived,
            "outcome": self.outcome,
            "reconciled": self.reconciled,
            "injected": self.injected,
            "detected": self.detected,
            "stats": self.stats.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ChaosTrial":
        return cls(
            stencil=str(data["stencil"]),
            boundary=str(data["boundary"]),
            mode=str(data["mode"]),
            seed=int(data["seed"]),
            survived=bool(data["survived"]),
            outcome=str(data["outcome"]),
            reconciled=(
                None
                if data.get("reconciled") is None
                else bool(data["reconciled"])
            ),
            injected=int(data["injected"]),
            detected=int(data["detected"]),
            stats=FaultStats.from_dict(dict(data["stats"])),
        )


@dataclass
class ChaosReport:
    """A whole campaign's trials plus the headline properties."""

    trials: List[ChaosTrial] = field(default_factory=list)

    @property
    def num_trials(self) -> int:
        return len(self.trials)

    @property
    def num_survived(self) -> int:
        return sum(1 for t in self.trials if t.survived)

    @property
    def survival_rate(self) -> float:
        return self.num_survived / self.num_trials if self.trials else 1.0

    @property
    def silent_corruptions(self) -> int:
        return sum(1 for t in self.trials if t.silent_corruption)

    @property
    def unreconciled(self) -> int:
        return sum(1 for t in self.trials if t.reconciled is False)

    @property
    def total_remaps(self) -> int:
        return sum(t.stats.remaps + t.stats.live_migrations for t in self.trials)

    @property
    def ok(self) -> bool:
        """The acceptance predicate: every trial survived bit-identically,
        every non-degraded trial reconciled, nothing silently corrupted."""
        return (
            self.num_survived == self.num_trials
            and self.silent_corruptions == 0
            and self.unreconciled == 0
        )

    def describe(self) -> str:
        lines = [
            f"chaos campaign: {self.num_survived}/{self.num_trials} trials "
            f"survived bit-identically "
            f"({100.0 * self.survival_rate:.1f}%), "
            f"{self.silent_corruptions} silent corruptions, "
            f"{self.unreconciled} accounting mismatches, "
            f"{self.total_remaps} node remaps/migrations"
        ]
        for trial in self.trials:
            if not trial.survived or trial.reconciled is False:
                lines.append(
                    f"  {trial.stencil}/{trial.boundary}/{trial.mode} "
                    f"seed {trial.seed}: {trial.outcome}"
                    + ("" if trial.reconciled is not False else ", UNRECONCILED")
                )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "num_trials": self.num_trials,
            "num_survived": self.num_survived,
            "survival_rate": self.survival_rate,
            "silent_corruptions": self.silent_corruptions,
            "unreconciled": self.unreconciled,
            "total_remaps": self.total_remaps,
            "ok": self.ok,
            "trials": [t.to_dict() for t in self.trials],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ChaosReport":
        return cls(
            trials=[ChaosTrial.from_dict(dict(t)) for t in data["trials"]]
        )


def _build_problem(pattern, *, nodes: int, shape, spares: int, seed: int):
    """A deterministic problem instance: same seed, same bits."""
    params = MachineParams(num_nodes=nodes)
    machine = CM2(params, spares=spares)
    compiled = compile_stencil(pattern, params)
    rng = np.random.default_rng(seed)
    x = CMArray.from_numpy(
        "X", machine, rng.standard_normal(shape).astype(np.float32)
    )
    coeffs = {
        name: CMArray.from_numpy(
            name, machine, rng.standard_normal(shape).astype(np.float32)
        )
        for name in pattern.coefficient_names()
    }
    return machine, compiled, x, coeffs


def run_trial(
    stencil: str,
    boundary: str,
    mode: str,
    mode_kwargs: Dict[str, object],
    seed: int,
    *,
    nodes: int = 4,
    shape: Tuple[int, int] = (16, 24),
    iterations: int = 6,
    spares: int = 4,
    rates: Optional[Dict[str, float]] = None,
    schedule: Sequence[HardFaultSpec] = (),
    policy: Optional[ResiliencePolicy] = None,
) -> ChaosTrial:
    """One campaign cell: chaos run vs fault-free reference.

    The reference runs unguarded on its own pristine machine (its totals
    are the closed form the chaos run must reconcile against); the chaos
    run gets ``spares`` spare nodes and a remap budget to match.
    """
    pattern = boundary_variant(getattr(gallery, stencil)(), boundary)
    _, ref_compiled, ref_x, ref_coeffs = _build_problem(
        pattern, nodes=nodes, shape=shape, spares=0, seed=seed
    )
    reference = apply_stencil(
        ref_compiled, ref_x, ref_coeffs, "R_REF",
        iterations=iterations, **mode_kwargs,
    )
    expected = reference.result.to_numpy()

    _, compiled, x, coeffs = _build_problem(
        pattern, nodes=nodes, shape=shape, spares=spares, seed=seed
    )
    injector = FaultInjector(
        seed=seed,
        rates=dict(DEFAULT_RATES if rates is None else rates),
        schedule=schedule,
    )
    if policy is None:
        policy = ResiliencePolicy(max_remaps=max(1, spares))
    try:
        run = apply_stencil(
            compiled, x, coeffs, "R_CHAOS", iterations=iterations,
            faults=injector, resilience=policy, **mode_kwargs,
        )
    except FaultError as error:
        stats = FaultStats()
        return ChaosTrial(
            stencil=stencil,
            boundary=boundary,
            mode=mode,
            seed=seed,
            survived=False,
            outcome=f"typed_error:{type(error).__name__}",
            reconciled=None,
            injected=injector.total_injected,
            detected=0,
            stats=stats,
        )
    stats = run.fault_stats
    identical = bool(np.array_equal(run.result.to_numpy(), expected))
    degraded_rung = any("->" in step for step in stats.degradations)
    if degraded_rung:
        reconciled: Optional[bool] = None
    else:
        reconciled = (
            run.total_comm_cycles
            == reference.total_comm_cycles + stats.recovery_comm_cycles()
        ) and (
            run.total_compute_cycles
            == reference.total_compute_cycles
            + stats.recovery_compute_cycles()
        )
    return ChaosTrial(
        stencil=stencil,
        boundary=boundary,
        mode=mode,
        seed=seed,
        survived=identical,
        outcome="identical" if identical else "MISMATCH",
        reconciled=reconciled,
        injected=stats.total_injected,
        detected=stats.total_detected,
        stats=stats,
    )


def run_campaign(
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    *,
    patterns: Sequence[str] = DEFAULT_PATTERNS,
    boundaries: Sequence[str] = ("torus", "fill"),
    modes: Sequence[Tuple[str, Dict[str, object]]] = EXECUTION_MODES,
    nodes: int = 4,
    shape: Tuple[int, int] = (16, 24),
    iterations: int = 6,
    spares: int = 4,
    rates: Optional[Dict[str, float]] = None,
) -> ChaosReport:
    """Sweep ``patterns x boundaries x modes x seeds``."""
    report = ChaosReport()
    for seed in seeds:
        for stencil in patterns:
            for boundary in boundaries:
                for mode, mode_kwargs in modes:
                    report.trials.append(
                        run_trial(
                            stencil, boundary, mode, dict(mode_kwargs),
                            seed, nodes=nodes, shape=shape,
                            iterations=iterations, spares=spares,
                            rates=rates,
                        )
                    )
    return report


# ----------------------------------------------------------------------
# Service chaos: the ``repro chaos --service`` engine
# ----------------------------------------------------------------------

#: Default service-plane fault rates for a chaos trial: crashes and
#: hangs frequent enough that every five-seed campaign exercises the
#: supervisor's reclaim/re-enqueue/respawn path and the deadline abort,
#: storms certain so the overload phase always has a burst to shed.
SERVICE_RATES: Dict[str, float] = {
    "worker_crash": 0.12,
    "job_hang": 0.08,
    "tenant_storm": 1.0,
}


@dataclass
class ServiceChaosTrial:
    """One seeded pass of the three-phase service chaos scenario.

    Phase A runs a two-wave multi-tenant workload (healthy tenants plus
    a tenant whose every job dies with a hard data-path fault) to
    completion under seeded worker crashes and hangs.  Phase B runs the
    *same* workload against a journal, SIGKILLs the scheduler mid-wave,
    resumes from the journal, and finishes.  Phase C floods a
    watermarked single-worker scheduler with a seeded tenant storm and
    a pair of high-priority jobs.  ``survived`` is the conjunction of
    the chaos invariants: zero lost jobs, zero double runs, healthy
    tenants bit-identical to solo, exact ledger reconciliation, the
    resumed fingerprint equal to the uninterrupted one, quarantine
    observed, every shed typed.
    """

    seed: int
    jobs: int
    completed: int
    failed: int
    timeouts: int
    quarantined: int
    retries: int
    crashes_injected: int
    hangs_injected: int
    storm_jobs: int
    shed: int
    lost_jobs: int
    double_runs: int
    fingerprint_match: bool
    healthy_identical: bool
    reconciled: bool
    quarantine_observed: bool
    sheds_typed: bool
    outcome: str = "ok"

    @property
    def survived(self) -> bool:
        return (
            self.lost_jobs == 0
            and self.double_runs == 0
            and self.fingerprint_match
            and self.healthy_identical
            and self.reconciled
            and self.quarantine_observed
            and self.sheds_typed
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "jobs": self.jobs,
            "completed": self.completed,
            "failed": self.failed,
            "timeouts": self.timeouts,
            "quarantined": self.quarantined,
            "retries": self.retries,
            "crashes_injected": self.crashes_injected,
            "hangs_injected": self.hangs_injected,
            "storm_jobs": self.storm_jobs,
            "shed": self.shed,
            "lost_jobs": self.lost_jobs,
            "double_runs": self.double_runs,
            "fingerprint_match": self.fingerprint_match,
            "healthy_identical": self.healthy_identical,
            "reconciled": self.reconciled,
            "quarantine_observed": self.quarantine_observed,
            "sheds_typed": self.sheds_typed,
            "survived": self.survived,
            "outcome": self.outcome,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ServiceChaosTrial":
        known = {
            f: data[f]
            for f in (
                "seed", "jobs", "completed", "failed", "timeouts",
                "quarantined", "retries", "crashes_injected",
                "hangs_injected", "storm_jobs", "shed", "lost_jobs",
                "double_runs", "fingerprint_match", "healthy_identical",
                "reconciled", "quarantine_observed", "sheds_typed",
                "outcome",
            )
        }
        return cls(**known)


@dataclass
class ServiceChaosReport:
    """A whole service chaos campaign's trials plus the verdict."""

    trials: List[ServiceChaosTrial] = field(default_factory=list)

    @property
    def num_trials(self) -> int:
        return len(self.trials)

    @property
    def num_survived(self) -> int:
        return sum(1 for t in self.trials if t.survived)

    @property
    def total_retries(self) -> int:
        return sum(t.retries for t in self.trials)

    @property
    def total_sheds(self) -> int:
        return sum(t.shed for t in self.trials)

    @property
    def ok(self) -> bool:
        """Every trial upheld every invariant."""
        return self.num_survived == self.num_trials

    def describe(self) -> str:
        lines = [
            f"service chaos campaign: {self.num_survived}/{self.num_trials} "
            f"trials upheld every invariant "
            f"({sum(t.crashes_injected for t in self.trials)} crashes, "
            f"{sum(t.hangs_injected for t in self.trials)} hangs, "
            f"{self.total_retries} retries, {self.total_sheds} sheds, "
            f"{sum(t.quarantined for t in self.trials)} quarantines)"
        ]
        for trial in self.trials:
            if not trial.survived:
                lines.append(f"  seed {trial.seed}: {trial.outcome}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "num_trials": self.num_trials,
            "num_survived": self.num_survived,
            "total_retries": self.total_retries,
            "total_sheds": self.total_sheds,
            "ok": self.ok,
            "trials": [t.to_dict() for t in self.trials],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ServiceChaosReport":
        return cls(
            trials=[
                ServiceChaosTrial.from_dict(dict(t)) for t in data["trials"]
            ]
        )


def _service_workload(seed: int):
    """The trial's two-wave workload, identical across phases A and B.

    Two healthy tenants run real stencils; the ``flaky`` tenant's jobs
    all carry a certain hard data-path fault with no spares, so each
    one terminates in a typed ``JobFaultError`` -- wave 1 trips the
    tenant's breaker (three failures at the default threshold), so its
    wave-2 jobs must be quarantined at admission.
    """
    from ..service import StencilJob

    def healthy(index: int, wave: int) -> StencilJob:
        return StencilJob(
            tenant=f"tenant{index % 2}",
            pattern="cross5" if index % 2 else "square9",
            grid_shape=(32, 32),
            iterations=2,
            seed=seed * 1000 + wave * 100 + index,
            partition_shape=(2, 2),
            label=f"healthy{wave}-{index}",
        )

    def flaky(index: int, wave: int) -> StencilJob:
        return StencilJob(
            tenant="flaky",
            grid_shape=(16, 16),
            seed=seed * 1000 + wave * 100 + 50 + index,
            partition_shape=(2, 2),
            fault_rates={"node_dead": 1.0},
            fault_seed=seed + index,
            label=f"flaky{wave}-{index}",
        )

    wave1 = [healthy(i, 1) for i in range(6)] + [flaky(i, 1) for i in range(3)]
    wave2 = [healthy(i, 2) for i in range(3)] + [flaky(i, 2) for i in range(2)]
    return wave1, wave2


def run_service_trial(
    seed: int,
    *,
    journal_path: Optional[str] = None,
    rates: Optional[Dict[str, float]] = None,
    deadline_seconds: float = 0.3,
) -> ServiceChaosTrial:
    """One seeded pass of the three-phase service chaos scenario."""
    import os
    import random
    import tempfile
    import time

    from ..machine.params import MachineParams
    from ..runtime.faults import ServiceFaultInjector
    from ..service import (
        JournalState,
        MachinePool,
        OverloadError,
        Scheduler,
        ServicePolicy,
        StencilJob,
        solo_run,
    )

    def make_pool() -> MachinePool:
        return MachinePool(
            MachineParams().with_nodes(16),
            shape=(4, 4),
            default_partition=(2, 2),
        )

    def make_injector() -> ServiceFaultInjector:
        return ServiceFaultInjector(
            seed=seed, rates=dict(SERVICE_RATES if rates is None else rates)
        )

    policy = ServicePolicy(
        deadline_seconds=deadline_seconds,
        max_attempts=3,
        backoff_base_seconds=0.001,
        backoff_cap_seconds=0.004,
        breaker_threshold=3,
        breaker_cooldown_seconds=60.0,
        supervision_interval_seconds=0.002,
    )

    def wait_all(handles, timeout: float = 120.0) -> None:
        deadline = time.perf_counter() + timeout
        for handle in handles:
            remaining = max(deadline - time.perf_counter(), 0.01)
            try:
                handle.result(remaining)
            except Exception:
                pass  # typed outcomes are inspected via the handle

    wave1, wave2 = _service_workload(seed)

    def run_program(scheduler: Scheduler):
        first = scheduler.submit_all(wave1)
        wait_all(first)
        second = scheduler.submit_all(wave2)
        wait_all(second)
        return first + second

    violations: List[str] = []

    # ---- Phase A: uninterrupted run under crashes and hangs ----------
    injector_a = make_injector()
    sched_a = Scheduler(
        make_pool(), service_policy=policy, faults=injector_a
    )
    handles_a = run_program(sched_a)
    sched_a.close(timeout=60.0)
    fingerprint_a = sched_a.accounts.ledger_fingerprint()
    accounts_a = sched_a.accounts

    lost = sum(1 for h in handles_a if not h.done)
    if lost:
        violations.append(f"phase A lost {lost} job(s)")

    healthy_identical = True
    for handle in handles_a:
        if handle.job.tenant == "flaky" or handle.outcome != "completed":
            continue
        reference = solo_run(handle.job)
        if not handle.result().identical_to(reference):
            healthy_identical = False
            violations.append(
                f"phase A: {handle.job.label} diverged from its solo run"
            )
            break
    quarantine_observed = any(
        h.outcome == "quarantined" for h in handles_a
    )
    if not quarantine_observed:
        violations.append("phase A: breaker never quarantined the flaky tenant")
    reconciled = accounts_a.reconcile()
    if not reconciled:
        violations.append("phase A: ledger failed exact reconciliation")

    # ---- Phase B: journal, SIGKILL mid-wave, resume ------------------
    path = journal_path
    cleanup = False
    if path is None:
        fd, path = tempfile.mkstemp(
            prefix=f"service-chaos-{seed}-", suffix=".jsonl"
        )
        os.close(fd)
        cleanup = True
    try:
        victim = Scheduler(
            make_pool(),
            service_policy=policy,
            faults=make_injector(),
            journal_path=path,
        )
        victim.submit_all(wave1)
        time.sleep(0.003 + 0.04 * random.Random(seed).random())
        victim.kill()

        resumed = Scheduler(
            make_pool(),
            service_policy=policy,
            faults=make_injector(),
            journal_path=path,
        )
        handles_b = run_program(resumed)
        resumed.close(timeout=60.0)
        fingerprint_b = resumed.accounts.ledger_fingerprint()

        lost_b = sum(1 for h in handles_b if not h.done)
        if lost_b:
            violations.append(f"phase B lost {lost_b} job(s)")
        lost += lost_b
        state = JournalState.load(path)
        unsettled = sum(
            1 for key in state.submitted if not state.is_settled(key)
        )
        if unsettled:
            violations.append(
                f"phase B: {unsettled} journaled job(s) never settled"
            )
        lost += unsettled
        double_runs = state.duplicate_completions
        if double_runs:
            violations.append(f"phase B: {double_runs} double-run(s)")
        fingerprint_match = fingerprint_b == fingerprint_a
        if not fingerprint_match:
            violations.append(
                "phase B: resumed ledger fingerprint differs from the "
                "uninterrupted run's"
            )
        if not resumed.accounts.reconcile():
            reconciled = False
            violations.append("phase B: resumed ledger failed reconciliation")
    finally:
        if cleanup and os.path.exists(path):
            os.remove(path)

    # ---- Phase C: tenant storm against the watermark -----------------
    storm_injector = make_injector()
    burst = storm_injector.storm_size("storm", low=6, high=10)
    storm_policy = ServicePolicy(
        deadline_seconds=deadline_seconds,
        max_attempts=3,
        backoff_base_seconds=0.001,
        backoff_cap_seconds=0.004,
        breaker_threshold=3,
        breaker_cooldown_seconds=60.0,
        supervision_interval_seconds=0.002,
        max_queue_depth=2,
    )
    storm_sched = Scheduler(
        make_pool(), service_policy=storm_policy, max_workers=1
    )
    storm_jobs = [
        StencilJob(
            tenant="storm",
            grid_shape=(64, 64),
            iterations=6,
            seed=seed * 1000 + 500 + i,
            partition_shape=(2, 2),
            priority=0,
            label=f"storm-{i}",
        )
        for i in range(burst)
    ]
    vip_jobs = [
        StencilJob(
            tenant="vip",
            pattern="square9",
            grid_shape=(32, 32),
            iterations=2,
            seed=seed * 1000 + 600 + i,
            partition_shape=(2, 2),
            priority=10,
            label=f"vip-{i}",
        )
        for i in range(2)
    ]
    shed_raised = 0
    storm_handles = []
    sheds_typed = True
    for job in storm_jobs:
        try:
            storm_handles.append(storm_sched.submit(job))
        except OverloadError:
            shed_raised += 1
        except Exception as error:  # pragma: no cover - invariant breach
            sheds_typed = False
            violations.append(
                f"phase C: shed raised untyped {type(error).__name__}"
            )
    vip_handles = storm_sched.submit_all(vip_jobs)
    wait_all(storm_handles + vip_handles)
    storm_sched.close(timeout=60.0)
    shed_recorded = [h for h in storm_handles if h.outcome == "shed"]
    for handle in shed_recorded:
        if not isinstance(handle.error, OverloadError):
            sheds_typed = False
            violations.append(
                f"phase C: {handle.job.label} shed with untyped "
                f"{type(handle.error).__name__}"
            )
    shed_total = shed_raised + len(shed_recorded)
    if shed_total == 0:
        violations.append("phase C: the storm never hit the watermark")
        sheds_typed = False
    for handle in vip_handles:
        if handle.outcome != "completed":
            healthy_identical = False
            violations.append(
                f"phase C: vip job ended {handle.outcome}, not completed"
            )
        elif not handle.result().identical_to(solo_run(handle.job)):
            healthy_identical = False
            violations.append(
                f"phase C: {handle.job.label} diverged from its solo run"
            )
    if not storm_sched.accounts.reconcile():
        reconciled = False
        violations.append("phase C: storm ledger failed reconciliation")

    # ---- Lockdep cross-check (RS_LOCKDEP=1 runs only) ----------------
    # The whole trial ran on instrumented locks: the observed
    # acquisition DAG must be acyclic and every observed edge must be
    # explained by the racecheck analyzer's predicted lock graph --
    # the chaos campaign is what validates the static analysis.
    from ..verify import lockdep

    if lockdep.enabled():
        from ..verify.concurrency import predicted_lock_graph

        cycle = lockdep.REGISTRY.find_cycle()
        if cycle is not None:
            violations.append(
                "lockdep: observed lock-order cycle "
                + " -> ".join(cycle + cycle[:1])
            )
        unexplained = lockdep.REGISTRY.cross_check(predicted_lock_graph())
        if unexplained:
            violations.append(
                "lockdep: observed edge(s) the static lock graph does "
                "not predict: "
                + ", ".join(f"{u} -> {v}" for u, v in unexplained)
            )

    flaky_account = accounts_a.tenants.get("flaky")
    return ServiceChaosTrial(
        seed=seed,
        jobs=len(handles_a) + len(storm_jobs) + len(vip_jobs),
        completed=sum(1 for h in handles_a if h.outcome == "completed"),
        failed=0 if flaky_account is None else flaky_account.failures,
        timeouts=sum(
            a.timeouts for a in accounts_a.tenants.values()
        ),
        quarantined=sum(
            a.quarantined for a in accounts_a.tenants.values()
        ),
        retries=sum(a.retries for a in accounts_a.tenants.values()),
        crashes_injected=injector_a.injected.get("worker_crash", 0),
        hangs_injected=injector_a.injected.get("job_hang", 0),
        storm_jobs=burst,
        shed=shed_total,
        lost_jobs=lost,
        double_runs=double_runs,
        fingerprint_match=fingerprint_match,
        healthy_identical=healthy_identical,
        reconciled=reconciled,
        quarantine_observed=quarantine_observed,
        sheds_typed=sheds_typed,
        outcome="ok" if not violations else "; ".join(violations),
    )


def run_service_campaign(
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    *,
    rates: Optional[Dict[str, float]] = None,
    deadline_seconds: float = 0.3,
) -> ServiceChaosReport:
    """Run the three-phase service chaos scenario once per seed."""
    report = ServiceChaosReport()
    for seed in seeds:
        report.trials.append(
            run_service_trial(
                seed, rates=rates, deadline_seconds=deadline_seconds
            )
        )
    return report


# ----------------------------------------------------------------------
# SDC chaos: the ``repro chaos --sdc`` engine
# ----------------------------------------------------------------------

#: Execution modes the SDC campaign sweeps.  The exact oracle is
#: excluded by design: its rung is modeled as ECC-protected end to end,
#: so ABFT neither seals nor injects there (it is the ladder's last
#: resort *after* ABFT gives up on multi-cell damage).
SDC_MODES: Tuple[Tuple[str, Dict[str, object]], ...] = (
    ("fast", {}),
    ("blocked", {"block_depth": 3}),
)


@dataclass
class SdcTrial:
    """One seeded silent-data-corruption trial.

    ``kind`` names the scenario: ``solo`` (single-cell strikes on the
    solo executor, forward correction expected), ``batched`` (the same
    on a batched multi-filter run), or ``multicell`` (several
    words flipped per strike on a one-node machine, beyond forward
    correction by construction -- the rollback ladder or a typed error
    must take over).  ``forward`` records that the run healed with zero
    rollbacks, zero replayed iterations, and zero rung degradations:
    the headline ABFT property for single-cell damage.
    """

    stencil: str
    mode: str
    seed: int
    cells: int
    kind: str  # "solo", "batched", or "multicell"
    injected: int
    corrections: int
    detected: int
    rollbacks: int
    replays: int
    survived: bool
    outcome: str  # "identical", "typed_error:<Name>", or "MISMATCH"
    reconciled: Optional[bool]
    forward: bool
    stats: FaultStats = field(default_factory=FaultStats)

    @property
    def silent_corruption(self) -> bool:
        return self.outcome == "MISMATCH"

    def to_dict(self) -> Dict[str, object]:
        return {
            "stencil": self.stencil,
            "mode": self.mode,
            "seed": self.seed,
            "cells": self.cells,
            "kind": self.kind,
            "injected": self.injected,
            "corrections": self.corrections,
            "detected": self.detected,
            "rollbacks": self.rollbacks,
            "replays": self.replays,
            "survived": self.survived,
            "outcome": self.outcome,
            "reconciled": self.reconciled,
            "forward": self.forward,
            "stats": self.stats.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SdcTrial":
        return cls(
            stencil=str(data["stencil"]),
            mode=str(data["mode"]),
            seed=int(data["seed"]),
            cells=int(data["cells"]),
            kind=str(data["kind"]),
            injected=int(data["injected"]),
            corrections=int(data["corrections"]),
            detected=int(data["detected"]),
            rollbacks=int(data["rollbacks"]),
            replays=int(data["replays"]),
            survived=bool(data["survived"]),
            outcome=str(data["outcome"]),
            reconciled=(
                None
                if data.get("reconciled") is None
                else bool(data["reconciled"])
            ),
            forward=bool(data["forward"]),
            stats=FaultStats.from_dict(dict(data["stats"])),
        )


def _sdc_trial_from_run(
    *,
    stencil: str,
    mode: str,
    seed: int,
    cells: int,
    kind: str,
    identical: bool,
    stats: FaultStats,
    run_comm: int,
    run_compute: int,
    ref_comm: int,
    ref_compute: int,
) -> SdcTrial:
    """Score a completed (non-raising) SDC run against its reference.

    Reconciliation adds the dedicated ``abft_cycles`` bucket on the
    compute side: seal/verify overhead is canonical ABFT work, not
    recovery, so the decomposition is
    ``run = reference + recovery + abft``.
    """
    degraded = any("->" in step for step in stats.degradations)
    if degraded:
        reconciled: Optional[bool] = None
    else:
        reconciled = (
            run_comm == ref_comm + stats.recovery_comm_cycles()
        ) and (
            run_compute
            == ref_compute
            + stats.recovery_compute_cycles()
            + stats.abft_cycles
        )
    forward = (
        stats.rollbacks == 0
        and stats.replayed_iterations == 0
        and not degraded
    )
    return SdcTrial(
        stencil=stencil,
        mode=mode,
        seed=seed,
        cells=cells,
        kind=kind,
        injected=stats.total_injected,
        corrections=stats.sdc_corrections,
        detected=stats.total_detected,
        rollbacks=stats.rollbacks,
        replays=stats.replayed_iterations,
        survived=identical,
        outcome="identical" if identical else "MISMATCH",
        reconciled=reconciled,
        forward=forward,
        stats=stats,
    )


def _sdc_trial_from_error(
    error: FaultError,
    injector: FaultInjector,
    *,
    stencil: str,
    mode: str,
    seed: int,
    cells: int,
    kind: str,
) -> SdcTrial:
    return SdcTrial(
        stencil=stencil,
        mode=mode,
        seed=seed,
        cells=cells,
        kind=kind,
        injected=injector.total_injected,
        corrections=0,
        detected=0,
        rollbacks=0,
        replays=0,
        survived=False,
        outcome=f"typed_error:{type(error).__name__}",
        reconciled=None,
        forward=False,
        stats=FaultStats(),
    )


def run_sdc_trial(
    stencil: str,
    mode: str,
    mode_kwargs: Dict[str, object],
    seed: int,
    *,
    cells: int = 1,
    nodes: int = 4,
    shape: Tuple[int, int] = (16, 24),
    iterations: int = 6,
    rate: float = 1.0,
) -> SdcTrial:
    """One solo SDC trial: seeded bit-flips vs an unguarded reference.

    The injector strikes the resident result stack between ABFT seal
    and verify every iteration (``rate`` defaults to certainty), each
    strike flipping ``cells`` mantissa/exponent bits.  With
    ``cells=1`` every strike is forward-correctable; larger values
    force the rollback ladder.
    """
    pattern = getattr(gallery, stencil)()
    _, ref_compiled, ref_x, ref_coeffs = _build_problem(
        pattern, nodes=nodes, shape=shape, spares=0, seed=seed
    )
    reference = apply_stencil(
        ref_compiled, ref_x, ref_coeffs, "R_REF",
        iterations=iterations, **mode_kwargs,
    )
    expected = reference.result.to_numpy()

    _, compiled, x, coeffs = _build_problem(
        pattern, nodes=nodes, shape=shape, spares=0, seed=seed
    )
    injector = FaultInjector(
        seed=seed, rates={"sdc": rate}, sdc_cells=cells
    )
    kind = "solo" if cells == 1 else "multicell"
    try:
        run = apply_stencil(
            compiled, x, coeffs, "R_SDC", iterations=iterations,
            faults=injector, resilience=ResiliencePolicy(abft=True),
            **mode_kwargs,
        )
    except FaultError as error:
        return _sdc_trial_from_error(
            error, injector, stencil=stencil, mode=mode, seed=seed,
            cells=cells, kind=kind,
        )
    stats = run.fault_stats
    identical = bool(np.array_equal(run.result.to_numpy(), expected))
    return _sdc_trial_from_run(
        stencil=stencil, mode=mode, seed=seed, cells=cells, kind=kind,
        identical=identical, stats=stats,
        run_comm=run.total_comm_cycles,
        run_compute=run.total_compute_cycles,
        ref_comm=reference.total_comm_cycles,
        ref_compute=reference.total_compute_cycles,
    )


def run_sdc_batched_trial(
    seed: int,
    *,
    nodes: int = 4,
    shape: Tuple[int, int] = (16, 24),
    batch: int = 2,
    iterations: int = 4,
    rate: float = 1.0,
) -> SdcTrial:
    """One batched SDC trial: mixed-pad filters, per-filter seals.

    Each iteration's strike lands on one filter's result slab of the
    shared 6-D stack; every slab is sealed after its pass and verified
    as the iteration's last act, exactly like a solo run.  Multi-cell
    damage takes the same rollback ladder.
    """

    def build(spares: int):
        params = MachineParams(num_nodes=nodes)
        machine = CM2(params, spares=spares)
        filters = tuple(
            compile_stencil(p, params)
            for p in (gallery.cross5(), gallery.cross9())
        )
        rng = np.random.default_rng(seed)
        sources = [
            CMArray.from_numpy(
                f"X{b}", machine,
                rng.standard_normal(shape).astype(np.float32),
            )
            for b in range(batch)
        ]
        coeffs = {
            name: CMArray.from_numpy(
                name, machine,
                rng.standard_normal(shape).astype(np.float32),
            )
            for p in (gallery.cross5(), gallery.cross9())
            for name in p.coefficient_names()
        }
        return machine, filters, sources, coeffs

    _, ref_filters, ref_sources, ref_coeffs = build(0)
    reference = apply_stencil_batch(
        ref_filters, ref_sources, ref_coeffs, "R_REF",
        iterations=iterations,
    )
    expected = reference.result.to_numpy()

    _, filters, sources, coeffs = build(0)
    injector = FaultInjector(seed=seed, rates={"sdc": rate})
    try:
        run = apply_stencil_batch(
            filters, sources, coeffs, "R_SDC", iterations=iterations,
            faults=injector, resilience=ResiliencePolicy(abft=True),
        )
    except FaultError as error:
        return _sdc_trial_from_error(
            error, injector, stencil="cross5+cross9", mode="batched",
            seed=seed, cells=1, kind="batched",
        )
    stats = run.fault_stats
    identical = bool(np.array_equal(run.result.to_numpy(), expected))
    return _sdc_trial_from_run(
        stencil="cross5+cross9", mode="batched", seed=seed, cells=1,
        kind="batched", identical=identical, stats=stats,
        run_comm=run.total_comm_cycles,
        run_compute=run.total_compute_cycles,
        ref_comm=reference.total_comm_cycles,
        ref_compute=reference.total_compute_cycles,
    )


@dataclass
class SdcReport:
    """A whole SDC campaign's trials plus the headline properties."""

    trials: List[SdcTrial] = field(default_factory=list)

    @property
    def num_trials(self) -> int:
        return len(self.trials)

    @property
    def single_cell_trials(self) -> List[SdcTrial]:
        return [t for t in self.trials if t.kind != "multicell"]

    @property
    def multicell_trials(self) -> List[SdcTrial]:
        return [t for t in self.trials if t.kind == "multicell"]

    @property
    def silent_corruptions(self) -> int:
        return sum(1 for t in self.trials if t.silent_corruption)

    @property
    def unreconciled(self) -> int:
        return sum(1 for t in self.trials if t.reconciled is False)

    @property
    def total_injected(self) -> int:
        return sum(t.injected for t in self.trials)

    @property
    def total_corrections(self) -> int:
        return sum(t.corrections for t in self.trials)

    @property
    def forward_corrected(self) -> int:
        """Single-cell trials healed with zero rollback/replay."""
        return sum(
            1
            for t in self.single_cell_trials
            if t.survived and t.forward
        )

    @property
    def ok(self) -> bool:
        """The acceptance predicate.

        Every single-cell trial must be bit-identical via pure forward
        correction (no rollbacks, no replays, no rung degradation) with
        every injected strike detected; every multi-cell trial must be
        bit-identical via the ladder *or* end in a typed error; nothing
        may silently corrupt and no reconcilable trial may fail to
        reconcile exactly.
        """
        single_ok = all(
            t.survived
            and t.forward
            and t.injected > 0
            and t.detected >= t.injected
            and t.corrections >= t.injected
            for t in self.single_cell_trials
        )
        multi_ok = all(
            t.survived or t.outcome.startswith("typed_error:")
            for t in self.multicell_trials
        )
        return (
            single_ok
            and multi_ok
            and self.silent_corruptions == 0
            and self.unreconciled == 0
        )

    def describe(self) -> str:
        singles = self.single_cell_trials
        lines = [
            f"sdc campaign: {self.forward_corrected}/{len(singles)} "
            f"single-cell trials forward-corrected bit-identically, "
            f"{self.total_corrections}/{self.total_injected} strikes "
            f"corrected, "
            f"{sum(1 for t in self.multicell_trials if t.survived)}"
            f"/{len(self.multicell_trials)} multi-cell trials healed "
            f"by the ladder, "
            f"{self.silent_corruptions} silent corruptions, "
            f"{self.unreconciled} accounting mismatches"
        ]
        for trial in self.trials:
            if trial.silent_corruption or trial.reconciled is False or (
                trial.kind != "multicell" and not trial.forward
            ):
                lines.append(
                    f"  {trial.kind}/{trial.stencil}/{trial.mode} "
                    f"seed {trial.seed}: {trial.outcome}, "
                    f"{trial.rollbacks} rollbacks, "
                    f"{trial.replays} replayed iterations"
                    + ("" if trial.reconciled is not False
                       else ", UNRECONCILED")
                )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "num_trials": self.num_trials,
            "forward_corrected": self.forward_corrected,
            "total_injected": self.total_injected,
            "total_corrections": self.total_corrections,
            "silent_corruptions": self.silent_corruptions,
            "unreconciled": self.unreconciled,
            "ok": self.ok,
            "trials": [t.to_dict() for t in self.trials],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SdcReport":
        return cls(
            trials=[SdcTrial.from_dict(dict(t)) for t in data["trials"]]
        )


def run_sdc_campaign(
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    *,
    patterns: Sequence[str] = ("cross5", "square9"),
    nodes: int = 4,
    shape: Tuple[int, int] = (16, 24),
    iterations: int = 6,
) -> SdcReport:
    """Per seed: ``patterns x SDC_MODES`` single-cell solo trials, one
    batched mixed-pad trial, and one multi-cell ladder trial (three
    flips per strike on a one-node machine, where forward correction
    provably cannot localize)."""
    report = SdcReport()
    for seed in seeds:
        for stencil in patterns:
            for mode, mode_kwargs in SDC_MODES:
                report.trials.append(
                    run_sdc_trial(
                        stencil, mode, dict(mode_kwargs), seed,
                        nodes=nodes, shape=shape,
                        iterations=iterations,
                    )
                )
        report.trials.append(
            run_sdc_batched_trial(seed, nodes=nodes, shape=shape)
        )
        report.trials.append(
            run_sdc_trial(
                "cross5", "fast", {}, seed, cells=3, nodes=1,
                shape=(8, 12), iterations=iterations,
            )
        )
    return report
