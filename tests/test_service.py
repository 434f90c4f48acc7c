"""Stencil-as-a-service: partitions, the pool, the scheduler, the ledger.

The acceptance property runs throughout: any job scheduled onto a
carved-out partition produces float32 results bit-identical to the same
job run solo on a private machine of the same node-grid shape -- fault
campaigns included -- and the per-tenant cycle accounting reconciles
exactly against the job records.
"""

import threading
import time

import numpy as np
import pytest

from repro.machine.geometry import Partition, PartitionError
from repro.machine.machine import CM2
from repro.machine.params import MachineParams
from repro.service import scheduler as scheduler_module
from repro.service import (
    JobCancelledError,
    JobFaultError,
    JobSpecError,
    JobTimeoutError,
    MachinePool,
    Scheduler,
    SchedulerClosedError,
    ServiceAccounts,
    ServicePolicy,
    StencilJob,
    execute_job,
    partition_machine,
    solo_run,
)

PARAMS = MachineParams(num_nodes=16)  # a 4x4 node grid


@pytest.fixture
def job_gate(monkeypatch):
    """Hold every job the scheduler runs until the test sets the
    returned event, so a scenario's ordering does not hang on timing."""
    gate = threading.Event()
    run = scheduler_module.execute_job

    def gated(*args, **kwargs):
        assert gate.wait(60.0), "job gate never opened"
        return run(*args, **kwargs)

    monkeypatch.setattr(scheduler_module, "execute_job", gated)
    return gate


# ---------------------------------------------------------------------------
# Partition validation
# ---------------------------------------------------------------------------


class TestPartition:
    def test_quarters_tile_the_grid(self):
        for origin in ((0, 0), (0, 2), (2, 0), (2, 2)):
            Partition((4, 4), origin, (2, 2)).validate()

    def test_row_bands_tile_the_grid(self):
        Partition((4, 4), (2, 0), (2, 4)).validate()

    def test_non_power_of_two_extent_rejected(self):
        with pytest.raises(PartitionError, match="powers of two"):
            Partition((4, 4), (0, 0), (3, 4)).validate()

    def test_extent_must_divide_parent(self):
        with pytest.raises(PartitionError):
            Partition((4, 4), (0, 0), (8, 4)).validate()

    def test_origin_must_align_to_the_tiling(self):
        with pytest.raises(PartitionError, match="align"):
            Partition((4, 4), (1, 0), (2, 2)).validate()

    def test_reserved_overlap_names_the_coordinates(self):
        reserved = frozenset({(3, 0), (3, 1), (3, 2), (3, 3)})
        with pytest.raises(PartitionError) as excinfo:
            Partition((4, 4), (2, 0), (2, 2), reserved).validate()
        assert excinfo.value.overlap == ((3, 0), (3, 1))
        assert "(3, 0)" in str(excinfo.value)

    def test_overlap_detection(self):
        a = Partition((4, 4), (0, 0), (2, 2))
        b = Partition((4, 4), (0, 2), (2, 2))
        c = Partition((4, 4), (0, 0), (4, 4))
        assert not a.overlaps(b)
        assert a.overlaps(c) and b.overlaps(c)

    def test_to_parent_maps_through_the_origin(self):
        tile = Partition((4, 4), (2, 2), (2, 2))
        assert tile.to_parent(0, 0) == (2, 2)
        assert tile.to_parent(1, 1) == (3, 3)
        # Logical coordinates wrap: the partition is its own torus.
        assert tile.to_parent(2, 0) == (2, 2)
        assert tile.to_parent(-1, 0) == (3, 2)


class TestPartitionedMachine:
    def test_machine_takes_its_shape_from_the_partition(self):
        tile = Partition((4, 4), (2, 0), (2, 2))
        machine = partition_machine(PARAMS, tile)
        assert machine.shape == (2, 2)
        assert machine.partition is tile
        assert machine.params.num_nodes == 4

    def test_shape_partition_mismatch_rejected(self):
        tile = Partition((4, 4), (0, 0), (2, 2))
        with pytest.raises(PartitionError, match="does not match"):
            CM2(PARAMS.with_nodes(8), shape=(2, 4), partition=tile)

    def test_invalid_partition_rejected_at_construction(self):
        bad = Partition((4, 4), (1, 0), (2, 2))
        with pytest.raises(PartitionError):
            CM2(PARAMS.with_nodes(4), partition=bad)

    def test_parent_coord_translation(self):
        tile = Partition((4, 4), (2, 2), (2, 2))
        machine = partition_machine(PARAMS, tile)
        assert machine.parent_coord(0, 0) == (2, 2)
        whole = CM2(PARAMS)
        assert whole.parent_coord(1, 3) == (1, 3)


# ---------------------------------------------------------------------------
# The machine pool
# ---------------------------------------------------------------------------


class TestMachinePool:
    def test_first_fit_walks_row_major(self):
        pool = MachinePool(PARAMS)
        origins = []
        for _ in range(4):
            tile, _machine = pool.acquire((2, 2))
            origins.append(tile.origin)
        assert origins == [(0, 0), (0, 2), (2, 0), (2, 2)]
        assert pool.acquire((2, 2)) is None  # full: busy, not an error

    def test_release_makes_the_tile_reusable(self):
        pool = MachinePool(PARAMS)
        held = [pool.acquire((2, 2)) for _ in range(4)]
        tile = held[2][0]
        pool.release(tile)
        again, _machine = pool.acquire((2, 2))
        assert again.origin == tile.origin

    def test_releasing_a_foreign_tile_is_an_error(self):
        pool = MachinePool(PARAMS)
        stranger = Partition((4, 4), (0, 0), (2, 2))
        with pytest.raises(PartitionError, match="never lent"):
            pool.release(stranger)

    def test_impossible_shape_raises_not_queues(self):
        pool = MachinePool(PARAMS)
        with pytest.raises(PartitionError):
            pool.acquire((3, 3))
        with pytest.raises(PartitionError):
            pool.acquire((8, 8))

    def test_spare_reservation_blocks_bottom_rows(self):
        pool = MachinePool(PARAMS, spare_rows=1)
        assert pool.num_reserved == 4
        origins = set()
        while True:
            acquired = pool.acquire((2, 2))
            if acquired is None:
                break
            origins.add(acquired[0].origin)
        # The (2, *) tiles cover reserved row 3 and are never lent.
        assert origins == {(0, 0), (0, 2)}
        with pytest.raises(PartitionError, match="reservation"):
            pool.acquire((4, 4))

    def test_spares_lend_and_exhaust(self):
        pool = MachinePool(PARAMS, spare_rows=1)
        first = pool.acquire((2, 2), spares=3)
        assert first is not None and pool.spares_free == 1
        assert pool.acquire((2, 2), spares=2) is None  # busy, retry later
        with pytest.raises(PartitionError, match="reserves"):
            pool.acquire((2, 2), spares=5)  # never satisfiable
        pool.release(first[0], spares=3)
        assert pool.spares_free == 4

    def test_best_fit_packs_against_the_occupied_corner(self):
        pool = MachinePool(PARAMS)
        corner, _machine = pool.acquire((2, 2), policy="best_fit")
        assert corner.origin == (0, 0)  # all corners tie; first wins
        neighbor, _machine = pool.acquire((2, 2), policy="best_fit")
        # Adjacent to the held corner beats the diagonally-opposite one.
        assert neighbor.origin in ((0, 2), (2, 0))

    def test_capacity_counts_simultaneous_tiles(self):
        assert MachinePool(PARAMS).capacity((2, 2)) == 4
        assert MachinePool(PARAMS, spare_rows=1).capacity((2, 2)) == 2


# ---------------------------------------------------------------------------
# Job specs
# ---------------------------------------------------------------------------


class TestStencilJob:
    def test_defaults_validate(self):
        job = StencilJob(tenant="t")
        assert job.pattern == "cross5" and job.label

    def test_bad_specs_raise_typed_errors(self):
        with pytest.raises(JobSpecError):
            StencilJob(tenant="")
        with pytest.raises(JobSpecError):
            StencilJob(tenant="t", pattern="nonesuch")
        with pytest.raises(JobSpecError):
            StencilJob(tenant="t", boundary="reflect")
        with pytest.raises(JobSpecError):
            StencilJob(tenant="t", iterations=0)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(JobSpecError, match="unknown job fields"):
            StencilJob.from_dict({"tenant": "t", "color": "red"})

    def test_fault_rates_are_canonicalized(self):
        a = StencilJob(tenant="t", fault_rates={"halo_corrupt": 0.5})
        b = StencilJob(tenant="t", fault_rates={"halo_corrupt": 0.5})
        assert a.fault_rates == b.fault_rates == (("halo_corrupt", 0.5),)
        assert a.guarded

    def test_grid_must_divide_over_the_partition(self):
        job = StencilJob(tenant="t", grid_shape=(15, 15))
        machine = CM2(PARAMS.with_nodes(4), shape=(2, 2))
        with pytest.raises(JobSpecError, match="divide evenly"):
            execute_job(job, machine)

    def test_solo_run_needs_a_shape(self):
        with pytest.raises(JobSpecError, match="shape"):
            solo_run(StencilJob(tenant="t"))


# ---------------------------------------------------------------------------
# The scheduler: bit-identity, priority, accounting
# ---------------------------------------------------------------------------


def _distinct_jobs():
    """K jobs spanning patterns, boundary modes, and iteration counts."""
    specs = [
        ("alice", "cross5", "torus", 1),
        ("alice", "cross9", "fill", 3),
        ("bob", "square9", "torus", 2),
        ("bob", "diamond13", "fill", 1),
        ("carol", "asymmetric5", "torus", 4),
        ("carol", "cross5", "fill", 2),
        ("dave", "diamond13", "torus", 3),
        ("dave", "square9", "fill", 4),
    ]
    return [
        StencilJob(
            tenant=tenant,
            pattern=pattern,
            boundary=boundary,
            iterations=iterations,
            grid_shape=(16, 16),
            seed=index,
        )
        for index, (tenant, pattern, boundary, iterations) in enumerate(specs)
    ]


class TestScheduler:
    def test_scheduled_results_are_bit_identical_to_solo_runs(self):
        """The acceptance property: K jobs with distinct patterns and
        boundary modes through the scheduler == solo sequential runs,
        bit for bit, with the ledger reconciling exactly."""
        jobs = _distinct_jobs()
        pool = MachinePool(PARAMS)
        with Scheduler(pool) as scheduler:
            scheduler.submit_all(jobs)
            results = scheduler.drain(timeout=120)
        assert len(results) == len(jobs)
        for result, job in zip(results, jobs):
            assert result.job is job
            reference = solo_run(job, params=PARAMS, shape=result.partition.shape)
            assert result.identical_to(reference), job.label
        accounts = scheduler.accounts
        assert accounts.reconcile()
        assert set(accounts.tenants) == {"alice", "bob", "carol", "dave"}
        assert accounts.total_cycles == sum(r.cycles for r in results)

    def test_fault_campaign_on_one_tenant_leaves_the_others_untouched(self):
        """A seeded soft-fault campaign on one tenant's jobs: its
        results still match its solo runs (the guarded run retries
        through the corruption), and no other tenant sees a fault."""
        clean = _distinct_jobs()[:4]
        chaotic = [
            StencilJob(
                tenant="chaos",
                pattern="cross5",
                boundary="torus",
                iterations=4,
                grid_shape=(16, 16),
                seed=99,
                fault_rates={"halo_corrupt": 0.6},
                fault_seed=5,
            ),
            StencilJob(
                tenant="chaos",
                pattern="square9",
                boundary="fill",
                iterations=3,
                grid_shape=(16, 16),
                seed=98,
                fault_rates={"halo_corrupt": 0.6},
                fault_seed=6,
            ),
        ]
        pool = MachinePool(PARAMS)
        with Scheduler(pool) as scheduler:
            scheduler.submit_all(clean + chaotic)
            results = scheduler.drain(timeout=120)
        injected = 0
        for result in results:
            reference = solo_run(
                result.job, params=PARAMS, shape=result.partition.shape
            )
            assert result.identical_to(reference), result.job.label
            if result.job.tenant == "chaos":
                injected += result.fault_stats.total_injected
            else:
                assert result.fault_stats.total_injected == 0
        assert injected > 0, "the campaign must actually inject"
        accounts = scheduler.accounts
        assert accounts.reconcile()
        assert accounts.tenants["chaos"].faults_injected == injected
        for tenant in ("alice", "bob"):
            assert accounts.tenants[tenant].faults_injected == 0

    def test_priority_orders_waiting_jobs(self):
        """On a single-tile pool, queued jobs run highest-priority
        first, FIFO within a priority."""
        pool = MachinePool(PARAMS, default_partition=(4, 4))
        with Scheduler(pool) as scheduler:
            head = scheduler.submit(
                StencilJob(tenant="head", iterations=6, grid_shape=(16, 16))
            )
            # Wait until "head" holds the only tile, so the rest queue
            # behind it and drain strictly by priority.
            deadline = time.perf_counter() + 30
            while head.started_wall is None:
                assert time.perf_counter() < deadline, "head never started"
                time.sleep(0.001)
            for tenant, priority in (("low", 0), ("high", 5), ("mid", 2)):
                scheduler.submit(
                    StencilJob(
                        tenant=tenant, priority=priority, grid_shape=(16, 16)
                    )
                )
            scheduler.drain(timeout=120)
            order = [r.job.tenant for r in scheduler.accounts.records]
        assert order == ["head", "high", "mid", "low"]

    def test_admission_rejects_impossible_jobs_immediately(self):
        pool = MachinePool(PARAMS, spare_rows=1)
        with Scheduler(pool) as scheduler:
            with pytest.raises(PartitionError):
                scheduler.submit(
                    StencilJob(tenant="t", partition_shape=(4, 4))
                )
            with pytest.raises(PartitionError):
                scheduler.submit(StencilJob(tenant="t", spares=99))

    def test_job_failures_surface_through_the_handle(self):
        pool = MachinePool(PARAMS)
        with Scheduler(pool) as scheduler:
            handle = scheduler.submit(
                StencilJob(tenant="t", grid_shape=(15, 15))
            )
            with pytest.raises(JobSpecError):
                handle.result(timeout=60)
            assert scheduler.accounts.tenants["t"].failures == 1
            assert scheduler.accounts.reconcile()

    def test_submit_after_close_is_refused(self):
        scheduler = Scheduler(MachinePool(PARAMS))
        scheduler.close()
        # The typed error is also a RuntimeError, for pre-PR 8 callers.
        with pytest.raises(SchedulerClosedError, match="closed"):
            scheduler.submit(StencilJob(tenant="t"))

    def test_guarded_job_borrows_pool_spares(self):
        pool = MachinePool(PARAMS, spare_rows=1)
        job = StencilJob(
            tenant="t",
            grid_shape=(16, 16),
            spares=2,
            fault_rates={"halo_corrupt": 0.2},
        )
        with Scheduler(pool) as scheduler:
            result = scheduler.submit(job).result(timeout=120)
        assert pool.spares_free == pool.num_reserved  # returned on release
        reference = solo_run(job, params=PARAMS, shape=result.partition.shape)
        assert result.identical_to(reference)


# ---------------------------------------------------------------------------
# Accounting
# ---------------------------------------------------------------------------


class TestAccounting:
    def test_fairness_is_one_for_equal_tenants(self):
        accounts = ServiceAccounts()
        jobs = [
            StencilJob(tenant=t, grid_shape=(16, 16), seed=i, iterations=2)
            for i, t in enumerate(("a", "b", "c", "d"))
        ]
        for job in jobs:
            accounts.charge(solo_run(job, params=PARAMS, shape=(2, 2)))
        # Same pattern, same grid, same iterations: identical cycles.
        assert accounts.fairness() == pytest.approx(1.0)
        assert accounts.reconcile()

    def test_reconcile_catches_a_corrupted_counter(self):
        accounts = ServiceAccounts()
        job = StencilJob(tenant="t", grid_shape=(16, 16))
        accounts.charge(solo_run(job, params=PARAMS, shape=(2, 2)))
        assert accounts.reconcile()
        accounts.tenants["t"].comm_cycles += 1  # the lost-update bug
        assert not accounts.reconcile()

    def test_concurrent_charges_are_not_lost(self):
        """The ledger under a thread hammer: every charge lands."""
        accounts = ServiceAccounts()
        result = solo_run(
            StencilJob(tenant="t", grid_shape=(16, 16)),
            params=PARAMS,
            shape=(2, 2),
        )
        num_threads, rounds = 8, 50
        barrier = threading.Barrier(num_threads)

        def worker():
            barrier.wait()
            for _ in range(rounds):
                accounts.charge(result)

        threads = [
            threading.Thread(target=worker) for _ in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        account = accounts.tenants["t"]
        assert account.jobs == num_threads * rounds
        assert account.comm_cycles == num_threads * rounds * result.comm_cycles
        assert accounts.reconcile()

    def test_makespan_is_the_busiest_partition(self):
        accounts = ServiceAccounts()
        jobs = _distinct_jobs()
        pool = MachinePool(PARAMS)
        with Scheduler(pool) as scheduler:
            scheduler.submit_all(jobs)
            scheduler.drain(timeout=120)
            accounts = scheduler.accounts
        assert accounts.makespan_seconds <= accounts.serial_seconds
        assert accounts.concurrency_speedup >= 1.0
        assert accounts.aggregate_mflops > 0


# ---------------------------------------------------------------------------
# PR 8: fault containment
# ---------------------------------------------------------------------------

from repro.runtime.faults import (  # noqa: E402 - grouped with their tests
    FaultError,
    ServiceFaultInjector,
    ServiceFaultKind,
)
from repro.service import (  # noqa: E402 - grouped with their tests
    JobJournal,
    JobQuarantinedError,
    JobResult,
    JournalState,
    OverloadError,
    SchedulerShutdownError,
    WorkerCrashError,
    job_key,
)


def _wait_until(predicate, timeout=10.0):
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return True
        time.sleep(0.001)
    return False


def _fast_policy(**overrides):
    defaults = dict(
        deadline_seconds=0.2,
        max_attempts=3,
        backoff_base_seconds=0.001,
        backoff_cap_seconds=0.004,
        breaker_threshold=3,
        breaker_cooldown_seconds=60.0,
        supervision_interval_seconds=0.002,
    )
    defaults.update(overrides)
    return ServicePolicy(**defaults)


def _flaky_job(index, tenant="flaky"):
    """A job whose guarded run always dies with a hard data-path fault."""
    return StencilJob(
        tenant=tenant,
        grid_shape=(16, 16),
        seed=index,
        partition_shape=(2, 2),
        fault_rates={"node_dead": 1.0},
        fault_seed=index + 1,
        label=f"flaky-{index}",
    )


class TestServicePolicy:
    def test_defaults_validate(self):
        ServicePolicy()

    @pytest.mark.parametrize(
        "bad",
        [
            dict(deadline_seconds=0.0),
            dict(cycle_budget=-1),
            dict(max_attempts=0),
            dict(backoff_base_seconds=-0.1),
            dict(backoff_base_seconds=0.1, backoff_cap_seconds=0.01),
            dict(breaker_threshold=0),
            dict(breaker_cooldown_seconds=-1.0),
            dict(max_queue_depth=-1),
            dict(supervision_interval_seconds=0.0),
        ],
    )
    def test_nonsense_values_raise_immediately(self, bad):
        with pytest.raises(ValueError, match="ServicePolicy"):
            ServicePolicy(**bad)

    def test_backoff_doubles_and_caps(self):
        policy = ServicePolicy(
            backoff_base_seconds=0.01, backoff_cap_seconds=0.05
        )
        assert policy.backoff_seconds(1) == pytest.approx(0.01)
        assert policy.backoff_seconds(2) == pytest.approx(0.02)
        assert policy.backoff_seconds(3) == pytest.approx(0.04)
        assert policy.backoff_seconds(4) == pytest.approx(0.05)  # capped
        assert policy.backoff_seconds(10) == pytest.approx(0.05)


class TestTypedOutcomes:
    def test_result_wait_timeout_is_typed_with_tenant_and_label(
        self, job_gate
    ):
        # An expired result() wait raises JobTimeoutError, not a bare
        # TimeoutError, and names the tenant and job.  The job is held
        # until the wait has expired.
        with Scheduler(MachinePool(PARAMS)) as scheduler:
            handle = scheduler.submit(
                StencilJob(
                    tenant="slow",
                    grid_shape=(64, 64),
                    iterations=12,
                    label="glacier",
                )
            )
            with pytest.raises(JobTimeoutError) as excinfo:
                handle.result(timeout=1e-4)
            job_gate.set()
            assert excinfo.value.tenant == "slow"
            assert excinfo.value.label == "glacier"
            assert isinstance(excinfo.value, TimeoutError)
            # The job itself was unaffected by the caller's impatience.
            assert handle.result(timeout=60.0).job.label == "glacier"

    def test_close_reports_stuck_workers(self):
        # Satellite 2: a wedged worker makes close() raise a typed
        # SchedulerShutdownError naming the stuck threads.
        injector = ServiceFaultInjector(
            seed=0, rates={ServiceFaultKind.JOB_HANG: 1.0}
        )
        scheduler = Scheduler(
            MachinePool(PARAMS),
            service_policy=_fast_policy(deadline_seconds=1.0, max_attempts=1),
            faults=injector,
        )
        handle = scheduler.submit(StencilJob(tenant="t", label="wedge"))
        assert _wait_until(lambda: handle.outcome == "running")
        with pytest.raises(SchedulerShutdownError) as excinfo:
            scheduler.close(timeout=0.05)
        assert excinfo.value.stuck_workers
        assert all("worker" in name for name in excinfo.value.stuck_workers)

    def test_batched_job_hard_fault_lands_typed_in_the_record(self):
        # Satellite 3: a hard fault inside a batched (filters=) job must
        # reach the job record as a typed FaultError the retry and
        # quarantine paths can classify -- not a raw runtime exception.
        job = StencilJob(
            tenant="t",
            grid_shape=(16, 16),
            filters=("cross5", "square9"),
            batch=2,
            partition_shape=(2, 2),
            fault_rates={"node_dead": 1.0},
            fault_seed=7,
            label="batched-doom",
        )
        with Scheduler(MachinePool(PARAMS)) as scheduler:
            handle = scheduler.submit(job)
            with pytest.raises(JobFaultError) as excinfo:
                handle.result(timeout=60.0)
        assert handle.outcome == "failed"
        assert isinstance(handle.error, FaultError)
        assert excinfo.value.tenant == "t"
        assert excinfo.value.label == "batched-doom"
        assert isinstance(excinfo.value.fault, FaultError)
        assert scheduler.accounts.tenants["t"].failures == 1

    def test_cancelling_a_queued_job_charges_nothing(self, job_gate):
        # Cancel removes a queued job; the tenant's cycle ledger stays
        # empty and the outcome is typed.  The gate holds the busy job
        # running until the queued one is cancelled.
        pool = MachinePool(PARAMS, default_partition=(4, 4))
        with Scheduler(pool, max_workers=1) as scheduler:
            running = scheduler.submit(
                StencilJob(tenant="busy", grid_shape=(64, 64), iterations=8)
            )
            assert _wait_until(lambda: running.outcome == "running")
            queued = scheduler.submit(
                StencilJob(tenant="victim", label="doomed")
            )
            assert queued.cancel() is True
            assert queued.outcome == "cancelled"
            with pytest.raises(JobCancelledError):
                queued.result(timeout=1.0)
            # Cancelling again (or cancelling a settled job) is a no-op.
            assert queued.cancel() is False
            job_gate.set()
            running.result(timeout=60.0)
        victim = scheduler.accounts.tenants["victim"]
        assert victim.cancelled == 1
        assert victim.jobs == 0
        assert victim.cycles == 0
        assert scheduler.accounts.reconcile()

    def test_drain_races_a_concurrent_submitter(self, job_gate):
        # Drain must pick up jobs submitted while it runs.  No job
        # finishes before the late batch is submitted, so drain's last
        # re-snapshot always sees it.
        first = [
            StencilJob(
                tenant="a", grid_shape=(32, 32), iterations=4, seed=i,
                partition_shape=(2, 2), label=f"first-{i}",
            )
            for i in range(5)
        ]
        late = [
            StencilJob(
                tenant="b", grid_shape=(16, 16), seed=i,
                partition_shape=(2, 2), label=f"late-{i}",
            )
            for i in range(5)
        ]
        with Scheduler(MachinePool(PARAMS)) as scheduler:
            scheduler.submit_all(first)
            barrier = threading.Barrier(2)

            def submitter():
                barrier.wait()
                scheduler.submit_all(late)
                job_gate.set()

            thread = threading.Thread(target=submitter)
            thread.start()
            barrier.wait()
            results = scheduler.drain(timeout=120.0)
            thread.join()
        assert len(results) == len(first) + len(late)
        assert scheduler.accounts.reconcile()


class TestSupervision:
    def test_crashed_worker_is_detected_and_job_retried_bit_identical(self):
        # Two certain crashes, then the third attempt completes; the
        # retried result must be bit-identical to the solo run.
        injector = ServiceFaultInjector(
            seed=1,
            rates={ServiceFaultKind.WORKER_CRASH: 1.0},
            max_faults=2,
        )
        job = StencilJob(
            tenant="t", grid_shape=(16, 16), seed=3, partition_shape=(2, 2)
        )
        with Scheduler(
            MachinePool(PARAMS),
            service_policy=_fast_policy(),
            faults=injector,
        ) as scheduler:
            handle = scheduler.submit(job)
            result = handle.result(timeout=60.0)
        assert handle.attempts == 3
        assert injector.injected["worker_crash"] == 2
        assert result.identical_to(solo_run(job))
        account = scheduler.accounts.tenants["t"]
        assert account.retries == 2
        assert account.jobs == 1
        assert scheduler.accounts.reconcile()

    def test_crash_budget_exhaustion_records_worker_crash_error(self):
        injector = ServiceFaultInjector(
            seed=1, rates={ServiceFaultKind.WORKER_CRASH: 1.0}
        )
        job = StencilJob(tenant="t", grid_shape=(16, 16), seed=5,
                         partition_shape=(2, 2))
        with Scheduler(
            MachinePool(PARAMS),
            service_policy=_fast_policy(max_attempts=2),
            faults=injector,
        ) as scheduler:
            handle = scheduler.submit(job)
            with pytest.raises(WorkerCrashError):
                handle.result(timeout=60.0)
        assert handle.outcome == "failed"
        assert handle.attempts == 2
        # The pool recovered both leaked partitions.
        assert scheduler.pool.occupied == ()

    def test_hung_job_is_aborted_at_the_deadline_and_times_out(self):
        injector = ServiceFaultInjector(
            seed=1, rates={ServiceFaultKind.JOB_HANG: 1.0}
        )
        job = StencilJob(tenant="t", grid_shape=(16, 16), seed=6,
                         partition_shape=(2, 2))
        with Scheduler(
            MachinePool(PARAMS),
            service_policy=_fast_policy(
                deadline_seconds=0.05, max_attempts=2
            ),
            faults=injector,
        ) as scheduler:
            handle = scheduler.submit(job)
            with pytest.raises(JobTimeoutError):
                handle.result(timeout=60.0)
        assert handle.outcome == "timeout"
        assert scheduler.accounts.tenants["t"].timeouts == 1
        assert scheduler.accounts.tenants["t"].retries == 1
        assert scheduler.accounts.reconcile()

    def test_cycle_budget_breach_is_terminal_not_retried(self):
        job = StencilJob(tenant="t", grid_shape=(32, 32), iterations=4,
                         partition_shape=(2, 2))
        with Scheduler(
            MachinePool(PARAMS),
            service_policy=_fast_policy(cycle_budget=10),
        ) as scheduler:
            handle = scheduler.submit(job)
            with pytest.raises(JobTimeoutError, match="budget"):
                handle.result(timeout=60.0)
        assert handle.outcome == "timeout"
        assert handle.attempts == 1  # deterministic cost: no retry


class TestCircuitBreaker:
    def test_breaker_opens_quarantines_then_probes_after_cooldown(self):
        policy = _fast_policy(
            breaker_threshold=2, breaker_cooldown_seconds=0.05
        )
        with Scheduler(
            MachinePool(PARAMS), service_policy=policy
        ) as scheduler:
            for index in range(2):
                handle = scheduler.submit(_flaky_job(index))
                with pytest.raises(FaultError):
                    handle.result(timeout=60.0)
            assert scheduler.breaker_state("flaky") == "open"
            refused = scheduler.submit(_flaky_job(99))
            assert refused.outcome == "quarantined"
            with pytest.raises(JobQuarantinedError):
                refused.result(timeout=1.0)
            time.sleep(0.08)  # past the cooldown: one probe is admitted
            probe = scheduler.submit(
                StencilJob(
                    tenant="flaky", grid_shape=(16, 16), seed=42,
                    partition_shape=(2, 2), label="probe",
                )
            )
            assert probe.result(timeout=60.0).job.label == "probe"
            assert scheduler.breaker_state("flaky") == "closed"
        assert scheduler.accounts.tenants["flaky"].quarantined == 1
        assert scheduler.accounts.reconcile()

    def test_quarantined_tenant_cannot_slow_healthy_ones(self):
        policy = _fast_policy(breaker_threshold=2)
        clean = StencilJob(
            tenant="clean", grid_shape=(16, 16), seed=9,
            partition_shape=(2, 2),
        )
        with Scheduler(
            MachinePool(PARAMS), service_policy=policy
        ) as scheduler:
            for index in range(2):
                handle = scheduler.submit(_flaky_job(index))
                with pytest.raises(FaultError):
                    handle.result(timeout=60.0)
            scheduler.submit(_flaky_job(50))  # quarantined, never runs
            result = scheduler.submit(clean).result(timeout=60.0)
        assert result.identical_to(solo_run(clean))
        assert scheduler.accounts.tenants["flaky"].jobs == 0
        assert scheduler.accounts.reconcile()


class TestOverloadShedding:
    def test_watermark_sheds_lowest_priority_first(self, job_gate):
        # The gate holds the running job until the vip one is admitted,
        # so the queue is at its watermark for the whole scenario; the
        # long deadline keeps the held job from timing out meanwhile.
        pool = MachinePool(PARAMS, default_partition=(4, 4))
        policy = _fast_policy(max_queue_depth=1, deadline_seconds=60.0)
        with Scheduler(pool, service_policy=policy, max_workers=1) as sched:
            running = sched.submit(
                StencilJob(tenant="t", grid_shape=(64, 64), iterations=8,
                           priority=5, label="running")
            )
            assert _wait_until(lambda: running.outcome == "running")
            queued = sched.submit(
                StencilJob(tenant="t", grid_shape=(16, 16), priority=5,
                           seed=1, label="queued")
            )
            # Queue is at the watermark.  A lower-priority arrival is
            # itself the victim: typed OverloadError at admission.
            with pytest.raises(OverloadError):
                sched.submit(
                    StencilJob(tenant="lowly", grid_shape=(16, 16),
                               priority=0, seed=2, label="lowly")
                )
            # A higher-priority arrival evicts the queued job instead.
            vip = sched.submit(
                StencilJob(tenant="vip", grid_shape=(16, 16), priority=9,
                           seed=3, label="vip")
            )
            assert queued.outcome == "shed"
            assert isinstance(queued.error, OverloadError)
            job_gate.set()
            running.result(timeout=60.0)
            vip.result(timeout=60.0)
        accounts = sched.accounts
        assert accounts.tenants["lowly"].shed == 1
        assert accounts.tenants["t"].shed == 1
        assert accounts.tenants["vip"].jobs == 1
        assert accounts.reconcile()


class TestJournal:
    def test_job_keys_are_content_addressed_and_occurrence_indexed(self):
        job_a = StencilJob(tenant="t", seed=1)
        job_b = StencilJob(tenant="t", seed=2)
        assert job_key(job_a, 0) == job_key(StencilJob(tenant="t", seed=1), 0)
        assert job_key(job_a, 0) != job_key(job_a, 1)
        assert job_key(job_a, 0) != job_key(job_b, 0)

    def test_result_round_trips_through_the_journal_bit_exact(self):
        job = StencilJob(tenant="t", grid_shape=(16, 16), seed=4,
                         partition_shape=(2, 2))
        result = solo_run(job)
        clone = JobResult.from_journal_dict(result.to_journal_dict())
        assert clone.identical_to(result)
        assert clone.checksum == result.checksum
        assert clone.comm_cycles == result.comm_cycles
        assert clone.compute_cycles == result.compute_cycles
        assert clone.job == job

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = JobJournal(str(path))
        job = StencilJob(tenant="t", seed=1)
        journal.record_submitted(job_key(job, 0), job, 0)
        journal.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "completed", "key": "abc", "resu')
        state = JournalState.load(str(path))
        assert state.torn_tail
        assert len(state.submitted) == 1
        assert not state.completed

    def test_resumed_service_replays_completed_jobs(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        jobs = [
            StencilJob(tenant=f"t{i % 2}", grid_shape=(16, 16), seed=i,
                       partition_shape=(2, 2), label=f"j{i}")
            for i in range(6)
        ]
        with Scheduler(MachinePool(PARAMS), journal_path=path) as first:
            first.submit_all(jobs)
            originals = first.drain(timeout=120.0)
        fingerprint = first.accounts.ledger_fingerprint()

        with Scheduler(MachinePool(PARAMS), journal_path=path) as second:
            handles = second.submit_all(jobs)
            replayed = second.drain(timeout=120.0)
            # Replays settle instantly from the journal: no re-runs.
            assert all(h.attempts == 0 for h in handles)
        assert len(replayed) == len(originals)
        for original, replay in zip(originals, replayed):
            assert replay.identical_to(original)
        assert second.accounts.ledger_fingerprint() == fingerprint
        assert second.accounts.reconcile()
        assert JournalState.load(path).duplicate_completions == 0

    def test_kill_drops_inflight_work_and_resume_reruns_it(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        jobs = [
            StencilJob(tenant="t", grid_shape=(32, 32), iterations=3,
                       seed=i, partition_shape=(2, 2), label=f"j{i}")
            for i in range(8)
        ]
        reference = Scheduler(MachinePool(PARAMS))
        reference.submit_all(jobs)
        reference.drain(timeout=120.0)
        reference.close()
        fingerprint = reference.accounts.ledger_fingerprint()

        victim = Scheduler(MachinePool(PARAMS), journal_path=path)
        victim.submit_all(jobs)
        victim.kill()  # SIGKILL simulation: no drain, no settling

        resumed = Scheduler(MachinePool(PARAMS), journal_path=path)
        resumed.submit_all(jobs)
        results = resumed.drain(timeout=120.0)
        resumed.close()
        assert len(results) == len(jobs)
        assert resumed.accounts.ledger_fingerprint() == fingerprint
        assert resumed.accounts.reconcile()
        state = JournalState.load(path)
        assert state.duplicate_completions == 0
        assert all(state.is_settled(key) for key in state.submitted)
