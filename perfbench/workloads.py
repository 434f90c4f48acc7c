"""The four benchmark workloads, driven through ``repro``'s public API.

Each workload makes its inputs from the seed, sets itself up (machine,
data distribution, compilation and one warm-up op), runs ops, and checks
every op against an oracle outside the timed region.  The op-level
modeled figures (cycles, exchanges, fault counts) are read from the
program's own run records.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import threading
import time
from pathlib import Path

import numpy as np

from repro import CM2, CMArray, CMBatch, MachineParams, gallery
from repro.analysis.chaos import boundary_variant
from repro.baseline.reference import evaluate_assignment, reference_stencil
from repro.compiler import driver
from repro.fortran.parser import parse_assignment, parse_subroutine
from repro.runtime import batch, stencil_op
from repro.service import MachinePool, Scheduler, StencilJob
from repro.service.journal import job_key

import corpus as corpus_mod

HERE = Path(__file__).resolve().parent

#: Every workload runs at least this many timed ops, so its p90 has ten
#: samples beyond it.
MIN_OPS = 100


def to_stacked(array: np.ndarray, machine_shape) -> np.ndarray:
    """Global ``(..., rows, cols)`` data in a machine stack's layout."""
    grid_rows, grid_cols = machine_shape
    *lead, rows, cols = array.shape
    return array.reshape(
        tuple(lead) + (grid_rows, rows // grid_rows, grid_cols, cols // grid_cols)
    ).swapaxes(-3, -2)


def iterate_reference(pattern, x, coefficients, iterations: int) -> np.ndarray:
    for _ in range(iterations):
        x = reference_stencil(pattern, x, coefficients)
    return x


def peak_rss_mb() -> float:
    """Peak resident set of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def fault_counts(stats) -> dict:
    return {
        "retries": stats.retries,
        "sdc_corrections": stats.sdc_corrections,
        "recovery_cycles": stats.recovery_comm_cycles()
        + stats.recovery_compute_cycles(),
    }


class Workload:
    """Shared shape: ``setup``/``teardown`` bracket one instance of the
    system under test; ``op``/``check`` run and verify one op."""

    name = ""
    inject = None  # self-test defect: "corrupt-output" or "wrong-taps"
    #: Length of one ``run`` between reference bursts in a ``--trace 0``
    #: run: op time in a closed loop (at least one op), wall time on
    #: ``serve-jobfile``.
    segment_s = 0.2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def fail(self, index, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"op {index}: {reason}")

    def teardown(self) -> None:
        """Drop one set-up instance (the next ``setup`` starts fresh)."""


class ClosedLoop(Workload):
    """One op in flight; the caller's thread runs op after op.

    ``run`` times each op alone and checks it right after, so a check
    never overlaps an op.  Its phase clock counts op time only.
    """

    def run(self, seconds: float, min_ops: int, tracer=None):
        """Ops for ``seconds`` of op time and at least ``min_ops``.

        Returns one ``(end, duration, modeled seconds)`` sample per op,
        ``end`` on the phase clock.
        """
        samples = []
        spent = 0
        budget = seconds * 1e9
        while spent < budget or len(samples) < min_ops:
            index = self.attempted
            self.attempted += 1
            token = tracer.begin_op(index) if tracer else None
            start = time.perf_counter_ns()
            try:
                result, failure = self.op(index), None
            except Exception as error:  # noqa: BLE001 - a failed op
                result, failure = None, error
            elapsed = time.perf_counter_ns() - start
            if tracer:
                tracer.end_op(token)
            spent += elapsed
            if failure is not None:
                self.fail(index, f"raised {failure!r}")
                samples.append((spent, elapsed, 0.0))
            else:
                self.check(index, result)
                samples.append((spent, elapsed, self.modeled_seconds(result)))
        return samples

    def modeled_seconds(self, result) -> float:
        return result.elapsed_seconds


class Iterate256(ClosedLoop):
    """seismic9 on 256 nodes, 32x32 subgrids, 4 iterations per op.

    The subgrid, and with it each node's mix of tap loop and halo
    exchange, is the ROADMAP profile's.  A 16x16 node grid keeps every
    stack at 1 MiB, below the 4 MiB at which numpy advises huge pages;
    at the profile's 1,024 nodes, runs of unchanged code spread too
    widely to gate.
    """

    name = "iterate-256"
    nodes = 256
    subgrid = 32
    iterations = 4

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        side = int(math.isqrt(self.nodes)) * self.subgrid
        shape = (side, side)
        self.source = (HERE / "seismic9.f90").read_text(encoding="utf-8")
        # Iterates stay near [1, 2]: positive weights summing to ~1.
        self.x = rng.uniform(1.0, 2.0, shape).astype(np.float32)
        self.coefficients = corpus_mod.coefficient_env(rng, shape, 9, taps=9)

    def setup(self) -> None:
        driver.clear_compile_cache()
        self.machine = CM2(MachineParams(num_nodes=self.nodes))
        self.compiled = driver.compile_fortran(self.source, self.machine.params)
        self.x_array = CMArray.from_numpy("X", self.machine, self.x)
        self.c_arrays = {
            name: CMArray.from_numpy(name, self.machine, data)
            for name, data in self.coefficients.items()
        }
        self.result = CMArray("R", self.machine, self.x.shape)
        self.op(-1)

    def prepare_checks(self) -> None:
        expected = iterate_reference(
            self.compiled.pattern, self.x, self.coefficients, self.iterations
        )
        self.expected = to_stacked(expected, self.machine.shape)
        self.signature = None

    def op(self, index):
        return stencil_op.apply_stencil(
            self.compiled,
            self.x_array,
            self.c_arrays,
            self.result,
            iterations=self.iterations,
        )

    def check(self, index, run) -> None:
        stack = self.result.stacked
        if self.inject == "corrupt-output" and index == 0:
            stack[0, 0, 0, 0] = np.nextafter(stack[0, 0, 0, 0], np.inf)
        if not np.array_equal(stack, self.expected):
            self.fail(index, "result differs from reference_stencil")
        record = modeled_record(run)
        if self.signature is None:
            self.signature = record
        elif record != self.signature:
            self.fail(index, f"modeled figures moved: {record}")

    def modeled(self):
        return dict(self.signature)


def modeled_record(run) -> dict:
    """The modeled figures of one solo or batched run record."""
    if hasattr(run, "per_filter"):
        exchanges = run.num_exchanges
        comm = run.total_comm_cycles
        compute = run.total_compute_cycles
        depths = list(run.block_depths)
    else:
        exchanges = run.exchanges
        comm = run.comm_cycles_total
        compute = run.compute_cycles_total
        depths = [run.block_depth]
    return {
        "block_depths": depths,
        "exchanges": exchanges,
        "comm_cycles": comm,
        "compute_cycles": compute,
        "elapsed_seconds": run.elapsed_seconds,
        "useful_flops": run.useful_flops,
        "gflops": run.gflops,
        **fault_counts(run.fault_stats),
    }


class BatchGroups(ClosedLoop):
    """Six filters in two boundary groups over 8 grids on 256 nodes."""

    name = "batch-groups"
    nodes = 256
    subgrid = 16
    grids = 8
    iterations = 4
    FILTERS = (
        ("cross5", "torus"),
        ("cross9", "torus"),
        ("square9", "torus"),
        ("diamond13", "torus"),
        ("cross5", "fill"),
        ("square9", "fill"),
    )

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 2])
        side = int(math.isqrt(self.nodes)) * self.subgrid
        self.shape = (side, side)
        self.patterns = [
            boundary_variant(getattr(gallery, name)(), mode)
            for name, mode in self.FILTERS
        ]
        self.x = rng.uniform(1.0, 2.0, (self.grids,) + self.shape).astype(
            np.float32
        )
        # Shared by every filter; a 13-tap filter's weights sum to ~1.4,
        # a 5-tap one's to ~0.6, so 4 iterates stay within [0.1, 8].
        self.coefficients = corpus_mod.coefficient_env(
            rng, self.shape, 13, taps=9
        )

    def setup(self) -> None:
        driver.clear_compile_cache()
        self.machine = CM2(MachineParams(num_nodes=self.nodes))
        self.filters = [
            driver.compile_stencil(pattern, self.machine.params)
            for pattern in self.patterns
        ]
        self.sources = CMBatch.from_numpy("X", self.machine, self.x)
        self.c_arrays = {
            name: CMArray.from_numpy(name, self.machine, data)
            for name, data in self.coefficients.items()
        }
        self.result = CMBatch(
            "R", self.machine, (self.grids, len(self.filters)), self.shape
        )
        self.op(-1)

    def prepare_checks(self) -> None:
        expected = np.empty(
            (self.grids, len(self.patterns)) + self.shape, np.float32
        )
        for b in range(self.grids):
            for f, pattern in enumerate(self.patterns):
                expected[b, f] = iterate_reference(
                    pattern, self.x[b], self.coefficients, self.iterations
                )
        self.expected = to_stacked(expected, self.machine.shape)
        self.signature = None

    def op(self, index):
        return batch.apply_stencil_batch(
            self.filters,
            self.sources,
            self.c_arrays,
            self.result,
            iterations=self.iterations,
            block_depth="auto",
        )

    check = Iterate256.check
    modeled = Iterate256.modeled


class CompileCold(ClosedLoop):
    """Compiles of never-seen Fortran and Lisp sources.

    Each plan is then run once on 16 nodes with 64x64 subgrids and
    checked: a Fortran plan against ``evaluate_assignment`` of its
    parsed statement, a Lisp plan by its taps and against
    ``reference_stencil``.  The first ``MIN_OPS`` plans, the same on
    every run of a seed, give the modeled and code-size figures.
    """

    name = "compile-cold"
    subgrid = 64

    def generate(self) -> None:
        rng = np.random.default_rng([self.seed, 3])
        self.params = MachineParams(num_nodes=16)
        side = 4 * self.subgrid
        self.shape = (side, side)
        self.x = rng.uniform(1.0, 2.0, self.shape).astype(np.float32)
        self.coefficients = corpus_mod.coefficient_env(
            rng, self.shape, 13, taps=13
        )
        self.corpus = corpus_mod.Corpus(self.seed)
        self.entries = []
        self.warmup = (HERE / "seismic9.f90").read_text(encoding="utf-8")

    def setup(self) -> None:
        driver.clear_compile_cache()
        self.machine = CM2(self.params)
        self.x_array = CMArray.from_numpy("X", self.machine, self.x)
        self.c_arrays = {
            name: CMArray.from_numpy(name, self.machine, data)
            for name, data in self.coefficients.items()
        }
        self.result = CMArray("R", self.machine, self.shape)
        compiled = driver.compile_fortran(self.warmup, self.params)
        self.execute(compiled)

    def prepare_checks(self) -> None:
        self.check_ratios = []
        self.prefix = []

    def entry(self, index: int):
        while len(self.entries) <= index:
            self.entries.append(next(self.corpus))
        return self.entries[index]

    def op(self, index):
        entry = self.entry(index)
        source = entry.source
        if self.inject == "wrong-taps" and index == 0:
            source = corpus_mod.with_moved_tap(entry)
        if entry.kind == "lisp":
            return driver.compile_defstencil(source, self.params)
        return driver.compile_fortran(source, self.params)

    def modeled_seconds(self, result) -> float:
        return 0.0  # a compile has no modeled time; see check()

    def execute(self, compiled):
        coefficients = {
            name: self.c_arrays[name.upper()]
            for name in compiled.pattern.coefficient_names()
        }
        start = time.perf_counter()
        run = stencil_op.apply_stencil(
            compiled, self.x_array, coefficients, self.result
        )
        return run, time.perf_counter() - start

    def check(self, index, compiled) -> None:
        entry = self.entries[index]
        self.entries[index] = None  # keep memory flat over a long run
        run, wall = self.execute(compiled)
        self.check_ratios.append(wall / run.elapsed_seconds)
        if index < MIN_OPS:
            self.prefix.append(
                (
                    run.gflops,
                    sum(plan.scratch_words for plan in compiled.plans.values()),
                    len(compiled.rejections),
                )
            )
        if entry.kind == "lisp":
            taps = corpus_mod.tap_list(compiled.pattern)
            if taps != tuple(zip(entry.offsets, entry.coefficients)):
                self.fail(index, "defstencil taps differ from the source's")
                return
            coefficients = {
                name.upper(): self.coefficients[name.upper()]
                for name in compiled.pattern.coefficient_names()
            }
            want = reference_stencil(compiled.pattern, self.x, coefficients)
        else:
            if entry.kind == "subroutine":
                statement = parse_subroutine(entry.source).statements[0]
            else:
                statement = parse_assignment(entry.source)
            env = {"X": self.x, **self.coefficients}
            want = evaluate_assignment(statement, env)
        if not np.array_equal(
            self.result.stacked, to_stacked(want, self.machine.shape)
        ):
            self.fail(index, f"{entry.kind} plan differs from its oracle")

    def modeled(self):
        """Figures of the first ``MIN_OPS`` plans: the same plans on
        every run of a seed."""
        n = len(self.prefix)
        return {
            "gflops": math.exp(sum(math.log(g) for g, _, _ in self.prefix) / n),
            "scratch_words": sum(s for _, s, _ in self.prefix) / n,
            "widths_rejected": sum(r for _, _, r in self.prefix) / n,
            "wall_per_modeled": statistics.median(self.check_ratios),
        }


class ServeJobfile(Workload):
    """``repro serve --journal`` traffic: seeded draws from the job file.

    Two client threads each keep one job in flight (two in all, one per
    worker), submitting the next job only when the last one's result
    is back.  Jobs are dealt in decks: each run of 15 jobs holds every
    template once, in a seeded order, so every seed sends the same mix.
    Every job gets a data seed of its own.
    """

    name = "serve-jobfile"
    clients = 2
    segment_s = 2.0
    DECKS = 8
    #: ``peak_rss_mb`` is read when this many jobs have completed: the
    #: scheduler keeps every result, so the resident set grows with the
    #: job count, and a fixed count keeps speed out of the figure.
    RSS_JOBS = 1500

    def generate(self) -> None:
        document = json.loads((HERE / "jobs.json").read_text(encoding="utf-8"))
        self.pool_spec = document["pool"]
        self.templates = document["jobs"]
        self._rng = np.random.default_rng([self.seed, 4])
        self._deck = []
        self._next_seed = 0
        self.jobs = []

    def fresh(self, template) -> StencilJob:
        """The template with a data seed no other job of the run has."""
        self._next_seed += 1
        seed = self.seed * 1_000_003 + self._next_seed
        return StencilJob.from_dict({**template, "seed": seed})

    def draw(self) -> StencilJob:
        if not self._deck:
            self._deck = list(self._rng.permutation(len(self.templates)))
        return self.fresh(self.templates[self._deck.pop()])

    def job(self, index: int) -> StencilJob:
        while len(self.jobs) <= index:
            self.jobs.append(self.draw())
        return self.jobs[index]

    def setup(self) -> None:
        driver.clear_compile_cache()
        params = MachineParams(num_nodes=self.pool_spec["nodes"])
        pool = MachinePool(params, spare_rows=self.pool_spec["spare_rows"])
        self.journal = os.path.join(
            self.out_dir, f"journal-{os.getpid()}-{time.perf_counter_ns()}.jsonl"
        )
        self.scheduler = Scheduler(
            pool, max_workers=2, journal_path=self.journal
        )
        handles = [
            self.scheduler.submit(self.fresh(template))
            for template in self.templates
        ]
        for handle in handles:
            handle.result(timeout=120)

    def teardown(self) -> None:
        self.scheduler.close()
        os.remove(self.journal)

    def prepare_checks(self) -> None:
        self.results = {}
        self.completed = 0

    def run(self, seconds: float, min_ops: int, tracer=None):
        """Closed loop of ``clients`` threads for ``seconds`` of wall
        time, continued until ``min_ops`` jobs have been issued.

        Returns samples like :meth:`ClosedLoop.run`, ends on the wall
        clock, and marks the peak resident set when the workload's
        ``RSS_JOBS``-th job completes, warm-up included.
        """
        lock = threading.Lock()
        samples = []
        first = len(self.jobs)
        started = time.perf_counter_ns()
        deadline = started + seconds * 1e9

        def client():
            while True:
                with lock:
                    index = len(self.jobs)
                    if (
                        time.perf_counter_ns() >= deadline
                        and index - first >= min_ops
                    ):
                        return
                    job = self.job(index)
                    self.attempted += 1
                token = None
                if tracer:
                    # Every spec is unique (fresh seeds): occurrence 0.
                    key = job_key(job, 0)
                    tracer.job_requests[id(job)] = key
                    token = tracer.begin_op(key)
                start = time.perf_counter_ns()
                try:
                    result = self.scheduler.submit(job).result(timeout=120)
                except Exception as error:  # noqa: BLE001 - a failed op
                    result = error
                end = time.perf_counter_ns()
                if tracer:
                    tracer.end_op(token)
                modeled = (
                    0.0 if isinstance(result, Exception)
                    else result.elapsed_seconds
                )
                with lock:
                    samples.append((end - started, end - start, modeled))
                    self.results[index] = result
                    self.completed += 1
                    if self.completed == self.RSS_JOBS:
                        self.rss_mb = peak_rss_mb()

        threads = [threading.Thread(target=client) for _ in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        samples.sort()
        return samples

    def check_all(self) -> None:
        """Check every job against the oracle, after the timed phase."""
        for index, result in sorted(self.results.items()):
            if isinstance(result, Exception):
                self.fail(index, f"raised {result!r}")
                continue
            want = job_oracle(result.job)
            if not np.array_equal(result.output, want):
                self.fail(index, f"{result.job.label} differs from reference")

    def modeled(self):
        """Modeled figures of the first ``DECKS`` decks of jobs: the
        same jobs on every run of a seed, the same mix on every seed."""
        decks = min(self.DECKS, len(self.results) // len(self.templates))
        prefix = [self.results[i] for i in range(decks * len(self.templates))]
        ok = [r for r in prefix if not isinstance(r, Exception)]
        flops = sum(r.useful_flops for r in ok)
        elapsed = sum(r.elapsed_seconds for r in ok)
        totals = {"exchanges": 0, "comm_cycles": 0, "retries": 0,
                  "sdc_corrections": 0, "recovery_cycles": 0}
        for r in ok:
            totals["exchanges"] += r.exchanges
            totals["comm_cycles"] += r.comm_cycles
            for key, value in fault_counts(r.fault_stats).items():
                totals[key] += value
        record = {key: value / len(ok) for key, value in totals.items()}
        record["gflops"] = flops / elapsed / 1e9
        return record


def job_oracle(job: StencilJob) -> np.ndarray:
    """A job's output recomputed from its seed, the way ``execute_job``
    derives its inputs, with ``reference_stencil``."""
    rng = np.random.default_rng(job.seed)
    if job.batched:
        patterns = job.build_filters()
        xs = rng.standard_normal((job.batch,) + job.grid_shape).astype(
            np.float32
        )
        names = sorted({n for p in patterns for n in p.coefficient_names()})
        coefficients = {
            n: rng.standard_normal(job.grid_shape).astype(np.float32)
            for n in names
        }
        out = np.empty((job.batch, len(patterns)) + job.grid_shape, np.float32)
        for b in range(job.batch):
            for f, pattern in enumerate(patterns):
                out[b, f] = iterate_reference(
                    pattern, xs[b], coefficients, job.iterations
                )
        return out
    pattern = job.build_pattern()
    x = rng.standard_normal(job.grid_shape).astype(np.float32)
    coefficients = {
        n: rng.standard_normal(job.grid_shape).astype(np.float32)
        for n in pattern.coefficient_names()
    }
    return iterate_reference(pattern, x, coefficients, job.iterations)


WORKLOADS = {
    cls.name: cls for cls in (Iterate256, BatchGroups, ServeJobfile, CompileCold)
}
