"""Stencil jobs: the unit of work the service schedules.

A :class:`StencilJob` is a self-contained, deterministic description of
one tenant's stencil run: the gallery pattern, the boundary mode, the
global grid, the iteration count, and the knobs (`block_depth`, `exact`,
fault injection) -- everything :func:`execute_job` needs to reproduce
the run bit for bit on any machine of the right node-grid shape.  The
input data is derived from the job's seed, so a job run through the
scheduler on a carved-out partition and the same job run solo on a
private machine must produce bit-identical float32 results; the service
test suite and ``repro serve`` both enforce exactly that.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import numbers
import time
from dataclasses import dataclass, field, fields
from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np

from ..analysis.chaos import boundary_variant
from ..compiler.driver import compile_stencil
from ..machine.geometry import Partition
from ..machine.machine import CM2
from ..machine.params import MachineParams
from ..runtime.batch import CMBatch, apply_stencil_batch
from ..runtime.cm_array import CMArray
from ..runtime.faults import (
    FaultError,
    FaultInjector,
    FaultKind,
    FaultStats,
    ResiliencePolicy,
)
from ..runtime.stencil_op import StencilRun, apply_stencil
from ..stencil import gallery
from .errors import JobFaultError

#: Boundary modes a job may name.
BOUNDARIES = ("torus", "fill")

#: Fault kinds a job's ``fault_rates`` may name.
FAULT_KINDS = tuple(kind.value for kind in FaultKind)


class JobSpecError(ValueError):
    """A job description that can never run (bad pattern, geometry...)."""


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


#: The scalar fields, by the type each must have.
_SCALARS = {
    str: ("tenant", "pattern", "boundary", "label"),
    int: ("iterations", "priority", "seed", "spares", "fault_seed", "batch"),
    bool: ("exact", "abft"),
}


def _shape(name: str, value) -> Tuple[int, int]:
    """``value`` as two positive ints, or :class:`JobSpecError`."""
    if not (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(_is_int(n) and n >= 1 for n in value)
    ):
        raise JobSpecError(f"{name} must be two positive ints, got {value!r}")
    return int(value[0]), int(value[1])


@dataclass(frozen=True)
class StencilJob:
    """One tenant's stencil run, fully determined by its fields.

    Attributes:
        tenant: the owning tenant's id (scopes accounting and cache
            telemetry, never results).
        pattern: a gallery pattern name (``cross5``, ``square9``, ...).
        grid_shape: the global array shape; must divide evenly over the
            partition's node grid (SIMD identical subgrids).
        boundary: ``"torus"`` (CSHIFT) or ``"fill"`` (EOSHIFT).
        iterations: how many times the stencil is applied.
        priority: admission priority; higher runs first among waiting
            jobs (ties break by submission order).
        partition_shape: the node-grid rectangle this job wants; None
            takes the pool's default.
        seed: derives the input and coefficient data deterministically.
        block_depth: temporal blocking depth (int or ``"auto"``).
        exact: run the cycle-stepped datapath instead of the fast path.
        spares: spare nodes the job's machine is armed with (lent from
            the pool's reservation for the job's lifetime).
        fault_rates: per-exchange fault-injection rates for chaos jobs
            (a mapping of :data:`FAULT_KINDS` to rates, or its
            ``(kind, rate)`` pairs, stored as sorted pairs); empty/None
            runs unguarded.
        fault_seed: the injector seed for chaos jobs.
        abft: arm algorithm-based fault tolerance: row/column checksum
            seals over the job's result stack, verified every iteration
            with single-word corruption forward-corrected in place (see
            :mod:`repro.runtime.abft`).  Required when ``fault_rates``
            includes ``"sdc"`` -- silent corruption with no detector
            would void the service's bit-identity contract.
        label: optional display name; defaults to a description.
        batch: independent input grids to run in one batched machine
            pass (1 = the classic solo job).
        filters: gallery pattern names to apply to every grid of the
            batch; None applies just ``pattern``.  Setting either
            ``batch > 1`` or ``filters`` routes the job through
            :func:`~repro.runtime.batch.apply_stencil_batch`.
    """

    tenant: str
    pattern: str = "cross5"
    grid_shape: Tuple[int, int] = (32, 32)
    boundary: str = "torus"
    iterations: int = 1
    priority: int = 0
    partition_shape: Optional[Tuple[int, int]] = None
    seed: int = 0
    block_depth: Union[int, str] = 1
    exact: bool = False
    spares: int = 0
    fault_rates: Optional[Tuple[Tuple[str, float], ...]] = None
    fault_seed: int = 1
    abft: bool = False
    label: str = ""
    batch: int = 1
    filters: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        for kind, names in _SCALARS.items():
            for name in names:
                value = getattr(self, name)
                if not (_is_int(value) if kind is int else isinstance(value, kind)):
                    raise JobSpecError(
                        f"{name} must be {kind.__name__}, got {value!r}"
                    )
                object.__setattr__(self, name, kind(value))
        if not self.tenant:
            raise JobSpecError("a job needs a tenant id")
        if not hasattr(gallery, self.pattern):
            raise JobSpecError(
                f"unknown gallery pattern {self.pattern!r} "
                f"(try `python -m repro gallery`)"
            )
        if self.boundary not in BOUNDARIES:
            raise JobSpecError(
                f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}"
            )
        if self.iterations < 1:
            raise JobSpecError("iterations must be positive")
        if self.spares < 0:
            raise JobSpecError("spares must be non-negative")
        if self.block_depth != "auto" and not (
            _is_int(self.block_depth) and self.block_depth >= 1
        ):
            raise JobSpecError(
                "block_depth must be a positive int or 'auto', "
                f"got {self.block_depth!r}"
            )
        object.__setattr__(
            self, "grid_shape", _shape("grid_shape", self.grid_shape)
        )
        if self.partition_shape is not None:
            object.__setattr__(
                self, "partition_shape",
                _shape("partition_shape", self.partition_shape),
            )
        if self.batch < 1:
            raise JobSpecError(
                f"batch must be >= 1, got {self.batch}"
            )
        if self.filters is not None:
            names = self.filters
            if not isinstance(names, (list, tuple)) or not all(
                isinstance(name, str) for name in names
            ):
                raise JobSpecError(
                    f"filters must be a list of gallery pattern names, "
                    f"got {names!r}"
                )
            if not names:
                raise JobSpecError(
                    "filters must name at least one gallery pattern "
                    "(or be omitted)"
                )
            for name in names:
                if not hasattr(gallery, name):
                    raise JobSpecError(
                        f"unknown gallery pattern {name!r} in filters "
                        f"(try `python -m repro gallery`)"
                    )
            object.__setattr__(self, "filters", tuple(names))
        rates = self.fault_rates
        if isinstance(rates, Mapping):
            rates = list(rates.items())
        if rates is not None:
            if not isinstance(rates, (list, tuple)) or not all(
                isinstance(pair, (list, tuple))
                and len(pair) == 2
                and pair[0] in FAULT_KINDS
                and isinstance(pair[1], numbers.Real)
                and not isinstance(pair[1], bool)
                for pair in rates
            ):
                raise JobSpecError(
                    f"fault_rates must map fault kinds {FAULT_KINDS} to "
                    f"rates, got {self.fault_rates!r}"
                )
            object.__setattr__(
                self,
                "fault_rates",
                tuple(sorted((k, float(v)) for k, v in dict(rates).items())),
            )
        if not self.abft and any(
            kind == "sdc" and rate > 0
            for kind, rate in (self.fault_rates or ())
        ):
            raise JobSpecError(
                "fault_rates includes 'sdc' but abft is False: silent "
                "corruption needs the ABFT verifier; set abft=true on "
                "the job (or drop the sdc rate)"
            )
        if not self.label:
            object.__setattr__(self, "label", self.describe())

    @property
    def guarded(self) -> bool:
        return bool(self.fault_rates) or self.spares > 0 or self.abft

    @property
    def batched(self) -> bool:
        """Whether this job runs the batched multi-convolution path."""
        return self.batch > 1 or self.filters is not None

    def describe(self) -> str:
        rows, cols = self.grid_shape
        if self.batched:
            names = "+".join(self.filter_names)
            return (
                f"{self.tenant}/{names}/{self.boundary} "
                f"{rows}x{cols} b{self.batch} x{self.iterations}"
            )
        return (
            f"{self.tenant}/{self.pattern}/{self.boundary} "
            f"{rows}x{cols} x{self.iterations}"
        )

    @property
    def filter_names(self) -> Tuple[str, ...]:
        """The gallery names this job applies (always at least one)."""
        return self.filters if self.filters is not None else (self.pattern,)

    def build_pattern(self):
        """The gallery pattern under this job's boundary mode."""
        return boundary_variant(getattr(gallery, self.pattern)(), self.boundary)

    def build_filters(self):
        """Every filter pattern under this job's boundary mode."""
        return tuple(
            boundary_variant(getattr(gallery, name)(), self.boundary)
            for name in self.filter_names
        )

    def to_dict(self) -> Dict[str, object]:
        """The job's full spec as JSON-clean data -- the exact inverse
        of :meth:`from_dict`, and the journal's canonical record of
        what was submitted."""
        return {
            "tenant": self.tenant,
            "pattern": self.pattern,
            "grid_shape": list(self.grid_shape),
            "boundary": self.boundary,
            "iterations": self.iterations,
            "priority": self.priority,
            "partition_shape": (
                None
                if self.partition_shape is None
                else list(self.partition_shape)
            ),
            "seed": self.seed,
            "block_depth": self.block_depth,
            "exact": self.exact,
            "spares": self.spares,
            "fault_rates": (
                None
                if self.fault_rates is None
                else [[kind, rate] for kind, rate in self.fault_rates]
            ),
            "fault_seed": self.fault_seed,
            "abft": self.abft,
            "label": self.label,
            "batch": self.batch,
            "filters": None if self.filters is None else list(self.filters),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "StencilJob":
        """Build a job from a ``jobs.json`` entry (unknown keys rejected;
        lists stand for tuples)."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise JobSpecError(f"unknown job fields: {sorted(unknown)}")
        if "tenant" not in data:
            raise JobSpecError("a job needs a tenant id")
        return cls(**data)


@dataclass
class JobResult:
    """One completed job's output and full cost accounting.

    Cycle totals come straight off the :class:`StencilRun`, so the
    PR 5 reconciliation invariant carries over: a guarded job's totals
    decompose exactly as fault-free closed form plus its
    :class:`~repro.runtime.faults.FaultStats` recovery buckets, and the
    service accounts reconcile as exact integer sums of these records.
    """

    job: StencilJob
    partition: Optional[Partition]
    output: np.ndarray
    comm_cycles: int
    compute_cycles: int
    half_strips: int
    exchanges: int
    block_depth: int
    machine_seconds: float
    host_seconds: float
    elapsed_seconds: float
    useful_flops: int
    mflops: float
    fault_stats: FaultStats = field(default_factory=FaultStats)
    queue_seconds: float = 0.0
    wall_seconds: float = 0.0

    @property
    def cycles(self) -> int:
        """Total modeled machine cycles (comm + compute)."""
        return self.comm_cycles + self.compute_cycles

    @property
    def checksum(self) -> str:
        """A stable fingerprint of the float32 output bits."""
        return hashlib.sha256(
            np.ascontiguousarray(self.output).tobytes()
        ).hexdigest()[:16]

    def identical_to(self, other: "JobResult") -> bool:
        """Bitwise float32 equality of the two outputs."""
        return bool(np.array_equal(self.output, other.output))

    def to_dict(self) -> Dict[str, object]:
        return {
            "tenant": self.job.tenant,
            "label": self.job.label,
            "pattern": self.job.pattern,
            "boundary": self.job.boundary,
            "grid_shape": list(self.job.grid_shape),
            "iterations": self.job.iterations,
            "priority": self.job.priority,
            "partition": (
                {
                    "origin": list(self.partition.origin),
                    "shape": list(self.partition.shape),
                }
                if self.partition is not None
                else None
            ),
            "comm_cycles": self.comm_cycles,
            "compute_cycles": self.compute_cycles,
            "cycles": self.cycles,
            "half_strips": self.half_strips,
            "exchanges": self.exchanges,
            "block_depth": self.block_depth,
            "machine_seconds": self.machine_seconds,
            "host_seconds": self.host_seconds,
            "elapsed_seconds": self.elapsed_seconds,
            "useful_flops": self.useful_flops,
            "mflops": self.mflops,
            "queue_seconds": self.queue_seconds,
            "wall_seconds": self.wall_seconds,
            "checksum": self.checksum,
            "faults_injected": self.fault_stats.total_injected,
            "faults_detected": self.fault_stats.total_detected,
        }

    def to_journal_dict(self) -> Dict[str, object]:
        """Everything needed to reconstruct this result after a crash:
        the full job spec, the partition rectangle, every charged
        counter, the fault stats, and the raw float32 output bits
        (base64) -- so a journal-resumed ledger can equal an
        uninterrupted run's ledger bit for bit, identity checks
        included."""
        return {
            "job": self.job.to_dict(),
            "partition": (
                None
                if self.partition is None
                else {
                    "parent_shape": list(self.partition.parent_shape),
                    "origin": list(self.partition.origin),
                    "shape": list(self.partition.shape),
                }
            ),
            "output_shape": list(self.output.shape),
            "output_b64": base64.b64encode(
                np.ascontiguousarray(self.output, dtype=np.float32).tobytes()
            ).decode("ascii"),
            "comm_cycles": self.comm_cycles,
            "compute_cycles": self.compute_cycles,
            "half_strips": self.half_strips,
            "exchanges": self.exchanges,
            "block_depth": self.block_depth,
            "machine_seconds": self.machine_seconds,
            "host_seconds": self.host_seconds,
            "elapsed_seconds": self.elapsed_seconds,
            "useful_flops": self.useful_flops,
            "mflops": self.mflops,
            "fault_stats": self.fault_stats.to_dict(),
            "queue_seconds": self.queue_seconds,
            "wall_seconds": self.wall_seconds,
        }

    @classmethod
    def from_journal_dict(cls, data: Mapping[str, object]) -> "JobResult":
        """Rebuild a completed job's result from its journal record."""
        part = data.get("partition")
        partition = (
            None
            if part is None
            else Partition(
                tuple(part["parent_shape"]),
                tuple(part["origin"]),
                tuple(part["shape"]),
            )
        )
        output = np.frombuffer(
            base64.b64decode(str(data["output_b64"])), dtype=np.float32
        ).reshape(tuple(data["output_shape"]))
        return cls(
            job=StencilJob.from_dict(dict(data["job"])),
            partition=partition,
            output=output,
            comm_cycles=int(data["comm_cycles"]),
            compute_cycles=int(data["compute_cycles"]),
            half_strips=int(data["half_strips"]),
            exchanges=int(data["exchanges"]),
            block_depth=int(data["block_depth"]),
            machine_seconds=float(data["machine_seconds"]),
            host_seconds=float(data["host_seconds"]),
            elapsed_seconds=float(data["elapsed_seconds"]),
            useful_flops=int(data["useful_flops"]),
            mflops=float(data["mflops"]),
            fault_stats=FaultStats.from_dict(dict(data["fault_stats"])),
            queue_seconds=float(data["queue_seconds"]),
            wall_seconds=float(data["wall_seconds"]),
        )


def partition_machine(
    params: MachineParams,
    partition: Partition,
    *,
    spares: int = 0,
) -> CM2:
    """A carved-out machine running one partition's rectangle.

    The machine's parameters are the parent's, resized to the
    partition's node count, so per-partition cost modeling (peak rate,
    comm constants) describes the hardware the tenant actually holds.
    """
    return CM2(
        params.with_nodes(partition.num_nodes),
        shape=partition.shape,
        spares=spares,
        partition=partition,
    )


def execute_job(
    job: StencilJob,
    machine: CM2,
    *,
    queue_seconds: float = 0.0,
) -> JobResult:
    """Run a job on a machine whose node grid it fits.

    Deterministic: the input and coefficients derive from ``job.seed``,
    the plan comes from the shared compile cache (keyed by value, so a
    cache shared with other tenants cannot change the bits), and the
    result is exactly what the same job produces solo.
    """
    grid_rows, grid_cols = machine.shape
    rows, cols = job.grid_shape
    if rows % grid_rows or cols % grid_cols:
        raise JobSpecError(
            f"job grid {job.grid_shape} does not divide evenly over the "
            f"{grid_rows}x{grid_cols} partition node grid"
        )
    injector = None
    resilience = None
    if job.guarded:
        injector = FaultInjector(
            seed=job.fault_seed, rates=dict(job.fault_rates or ())
        )
        resilience = ResiliencePolicy(
            max_remaps=max(1, job.spares), abft=job.abft
        )
    call = _batched_call(job, machine) if job.batched else _solo_call(job, machine)
    started = time.perf_counter()
    try:
        run: StencilRun = call(
            iterations=job.iterations,
            exact=job.exact,
            block_depth=job.block_depth,
            faults=injector,
            resilience=resilience,
            tenant=job.tenant,
        )
    except FaultError as error:
        raise JobFaultError(job.tenant, job.label, error) from error
    wall = time.perf_counter() - started
    return JobResult(
        job=job,
        partition=machine.partition,
        output=run.result.to_numpy(),
        comm_cycles=run.total_comm_cycles,
        compute_cycles=run.total_compute_cycles,
        half_strips=run.total_half_strips,
        exchanges=run.num_exchanges,
        block_depth=max(run.block_depths),
        machine_seconds=run.params.seconds(
            run.total_comm_cycles + run.total_compute_cycles
        ),
        host_seconds=run.host_seconds_total,
        elapsed_seconds=run.elapsed_seconds,
        useful_flops=run.useful_flops,
        mflops=run.mflops,
        fault_stats=run.fault_stats,
        queue_seconds=queue_seconds,
        wall_seconds=wall,
    )


def _solo_call(job: StencilJob, machine: CM2):
    """A solo job's inputs on ``machine`` -- the source, then each
    coefficient, derived from ``job.seed`` -- bound into the call that
    runs it."""
    pattern = job.build_pattern()
    compiled = compile_stencil(pattern, machine.params, tenant=job.tenant)
    rng = np.random.default_rng(job.seed)
    source = CMArray.from_numpy(
        "X", machine, rng.standard_normal(job.grid_shape).astype(np.float32)
    )
    coefficients = {
        name: CMArray.from_numpy(
            name,
            machine,
            rng.standard_normal(job.grid_shape).astype(np.float32),
        )
        for name in pattern.coefficient_names()
    }
    return functools.partial(apply_stencil, compiled, source, coefficients, "R")


def _batched_call(job: StencilJob, machine: CM2):
    """A batched job's inputs on ``machine`` -- the batch of inputs,
    then the (shared) coefficients in sorted-name order, derived from
    ``job.seed`` -- bound into the call that runs it.  Its result is the
    full ``(batch, filters, rows, cols)`` stack."""
    patterns = job.build_filters()
    filters = tuple(
        compile_stencil(pattern, machine.params, tenant=job.tenant)
        for pattern in patterns
    )
    rng = np.random.default_rng(job.seed)
    source = CMBatch.from_numpy(
        "X",
        machine,
        rng.standard_normal((job.batch,) + job.grid_shape).astype(np.float32),
    )
    coeff_names = sorted(
        {name for pattern in patterns for name in pattern.coefficient_names()}
    )
    coefficients = {
        name: CMArray.from_numpy(
            name,
            machine,
            rng.standard_normal(job.grid_shape).astype(np.float32),
        )
        for name in coeff_names
    }
    return functools.partial(
        apply_stencil_batch, filters, source, coefficients, "R"
    )


def solo_run(
    job: StencilJob,
    *,
    params: Optional[MachineParams] = None,
    shape: Optional[Tuple[int, int]] = None,
) -> JobResult:
    """The job on a private machine of the same node-grid shape.

    The bit-identity reference for every scheduled run: same seed, same
    geometry, nothing shared.  ``shape`` (or the job's own
    ``partition_shape``) names the node grid; it must match the shape
    the scheduler placed the job on for the comparison to be meaningful.
    """
    shape = shape or job.partition_shape
    if shape is None:
        raise JobSpecError(
            "solo_run needs a node-grid shape: set job.partition_shape "
            "or pass shape="
        )
    base = params or MachineParams()
    machine = CM2(
        base.with_nodes(shape[0] * shape[1]),
        shape=shape,
        spares=job.spares,
    )
    return execute_job(job, machine)
