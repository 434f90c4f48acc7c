"""Rates, extrapolation, and the paper's timing methodology.

The paper reports sustained rates over >= 100 iterations of elapsed wall
clock, and extrapolates 16-node measurements to the full 2,048-node
machine by scaling linearly: "the CM-2 is a completely synchronous SIMD
machine; the time required for computation and grid communication does
not change as the number of nodes is increased.  Experience ... has
shown that such extrapolations are quite reliable."

We provide both that linear extrapolation and an honest re-simulation at
the target size.  The two differ slightly: the front-end overhead is a
single host regardless of machine size, so a real 2,048-node run with
small subgrids falls short of the linear extrapolation -- exactly the gap
visible in the paper between the 13.65-Gflops extrapolated row and the
11.62-Gflops measured 2,048-node run.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine.params import MachineParams
from ..runtime.stencil_op import StencilRun


@dataclass(frozen=True)
class RateReport:
    """A results-table row in the paper's units."""

    stencil: str
    subgrid_rows: int
    subgrid_cols: int
    nodes: int
    iterations: int
    elapsed_seconds: float
    measured_mflops: float
    extrapolated_gflops: float
    block_depth: int = 1
    exchanges: int = 0
    #: Chaos-run accounting (all zero/empty on ordinary runs).  The
    #: measured rate above already includes the retry, checkpoint, and
    #: replay cycles, so a degraded run reports honest (lower) Gflops.
    faults_injected: int = 0
    faults_detected: int = 0
    retries: int = 0
    rollbacks: int = 0
    degradations: tuple = ()
    #: Hard-fault recovery accounting (all zero on ordinary runs).
    probes: int = 0
    timeouts: int = 0
    reroutes: int = 0
    remaps: int = 0
    live_migrations: int = 0

    def row(self) -> str:
        blocked = f" T={self.block_depth}" if self.block_depth > 1 else ""
        chaos = ""
        if self.faults_injected or self.faults_detected or self.retries:
            chaos = (
                f" [chaos: {self.faults_injected} injected, "
                f"{self.faults_detected} detected, {self.retries} retries, "
                f"{self.rollbacks} rollbacks"
            )
            hard = []
            if self.timeouts:
                hard.append(f"{self.timeouts} timeouts")
            if self.probes:
                hard.append(f"{self.probes} probes")
            if self.reroutes:
                hard.append(f"{self.reroutes} reroutes")
            if self.remaps:
                hard.append(f"{self.remaps} remaps")
            if self.live_migrations:
                hard.append(f"{self.live_migrations} live migrations")
            if hard:
                chaos += ", " + ", ".join(hard)
            if self.degradations:
                chaos += ", degraded " + ", ".join(self.degradations)
            chaos += "]"
        return (
            f"{self.stencil:<12} {self.subgrid_rows:>4}x{self.subgrid_cols:<5} "
            f"{self.nodes:>5} {self.iterations:>6} "
            f"{self.elapsed_seconds:>9.2f} s "
            f"{self.measured_mflops:>8.1f} Mflops "
            f"{self.extrapolated_gflops:>7.2f} Gflops{blocked}{chaos}"
        )


def extrapolate_mflops(
    measured_mflops: float, from_nodes: int, to_nodes: int
) -> float:
    """The paper's linear extrapolation between machine sizes."""
    return measured_mflops * to_nodes / from_nodes


def report(run: StencilRun, *, extrapolate_to: int = 2048) -> RateReport:
    """Summarize a stencil run as a results-table row."""
    rows, cols = run.result.subgrid_shape
    measured = run.mflops
    fault_stats = run.fault_stats
    return RateReport(
        stencil=run.compiled.pattern.name or "stencil",
        subgrid_rows=rows,
        subgrid_cols=cols,
        nodes=run.machine.num_nodes,
        iterations=run.iterations,
        elapsed_seconds=run.elapsed_seconds,
        measured_mflops=measured,
        extrapolated_gflops=extrapolate_mflops(
            measured, run.machine.num_nodes, extrapolate_to
        )
        / 1e3,
        block_depth=max(run.block_depths),
        exchanges=run.num_exchanges,
        faults_injected=fault_stats.total_injected,
        faults_detected=fault_stats.total_detected,
        retries=fault_stats.retries,
        rollbacks=fault_stats.rollbacks,
        degradations=fault_stats.degradations,
        probes=fault_stats.probes,
        timeouts=fault_stats.timeouts,
        reroutes=fault_stats.reroutes,
        remaps=fault_stats.remaps,
        live_migrations=fault_stats.live_migrations,
    )


def resimulated_gflops(run: StencilRun, to_nodes: int) -> float:
    """The honest alternative to linear extrapolation: the rate a
    ``to_nodes`` machine would actually sustain, with per-node time
    unchanged (SIMD) but the single front end's overhead *not* scaling
    away.
    """
    seconds = run.seconds_per_iteration  # unchanged per-node + host time
    flops = run.useful_flops_per_node_per_iteration * to_nodes
    return flops / seconds / 1e9


@dataclass(frozen=True)
class BatchFilterRow:
    """One filter's line of a batched-run results table."""

    stencil: str
    block_depth: int
    shared_exchanges: int
    own_exchanges: int
    coeff_exchanges: int
    comm_share: float
    mflops: float

    def row(self) -> str:
        blocked = f" T={self.block_depth}" if self.block_depth > 1 else ""
        return (
            f"  {self.stencil:<12} {self.shared_exchanges:>4} shared "
            f"{self.own_exchanges:>5} own {self.coeff_exchanges:>3} coeff "
            f"{self.comm_share:>5.1%} comm {self.mflops:>8.1f} Mflops"
            f"{blocked}"
        )


@dataclass(frozen=True)
class BatchRateReport:
    """A batched multi-convolution's results-table block: the aggregate
    line (the number the amortization argument is about) plus one
    attribution row per filter.

    Per-filter Mflops divide the run's elapsed time by each filter's
    share of total machine cycles -- host overhead is shared pro rata,
    since the front end issues group passes, not per-filter calls.
    """

    batch: int
    filters: int
    nodes: int
    subgrid_rows: int
    subgrid_cols: int
    iterations: int
    elapsed_seconds: float
    measured_mflops: float
    extrapolated_gflops: float
    num_exchanges: int
    host_calls: int
    per_filter: tuple

    def rows(self) -> str:
        head = (
            f"batch {self.batch:>3} x {self.filters} filters "
            f"{self.subgrid_rows:>4}x{self.subgrid_cols:<5} "
            f"{self.nodes:>5} {self.iterations:>6} "
            f"{self.elapsed_seconds:>9.4f} s "
            f"{self.measured_mflops:>8.1f} Mflops "
            f"{self.extrapolated_gflops:>7.2f} Gflops "
            f"[{self.num_exchanges} msgs, {self.host_calls} host calls]"
        )
        return "\n".join([head] + [row.row() for row in self.per_filter])


def batch_report(run, *, extrapolate_to: int = 2048) -> BatchRateReport:
    """Summarize a batched :class:`~repro.runtime.batch.StencilRun`.

    The aggregate rate is useful flops over elapsed wall clock for the
    whole batch -- the number to compare against a loop of solo runs.
    """
    rows, cols = run.result.subgrid_shape
    measured = run.mflops
    total_cycles = max(
        run.total_comm_cycles + run.total_compute_cycles, 1
    )
    per_filter = []
    for cost in run.per_filter:
        cycles = cost.comm_cycles + cost.compute_cycles
        share = cycles / total_cycles
        seconds = run.elapsed_seconds * share
        per_filter.append(
            BatchFilterRow(
                stencil=cost.name,
                block_depth=cost.block_depth,
                shared_exchanges=cost.shared_exchanges,
                own_exchanges=cost.own_exchanges,
                coeff_exchanges=cost.coeff_exchanges,
                comm_share=share,
                mflops=(
                    cost.useful_flops / seconds / 1e6 if seconds > 0 else 0.0
                ),
            )
        )
    return BatchRateReport(
        batch=run.batch,
        filters=len(run.filters),
        nodes=run.machine.num_nodes,
        subgrid_rows=rows,
        subgrid_cols=cols,
        iterations=run.iterations,
        elapsed_seconds=run.elapsed_seconds,
        measured_mflops=measured,
        extrapolated_gflops=extrapolate_mflops(
            measured, run.machine.num_nodes, extrapolate_to
        )
        / 1e3,
        num_exchanges=run.num_exchanges,
        host_calls=run.host_calls,
        per_filter=tuple(per_filter),
    )
