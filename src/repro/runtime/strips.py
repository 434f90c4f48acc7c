"""Strip mining: dividing a subgrid into strips and half-strips.

Once halo data has arrived, each node's subgrid is partitioned into
vertical strips of width 8, 4, 2 or 1 (the run-time library shaves off,
at each step, the widest strip for which the compiler produced a plan).
Each strip is processed as two half-strips, the basic unit of the
microcode loop; a half-strip sweeps line by line from the edge of the
subgrid toward the center, so its loop handles only one boundary
condition (paper section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from ..compiler.plan import CompiledStencil, WidthPlan
from ..machine.params import MachineParams
from ..machine.sequencer import HalfStripJob


@dataclass(frozen=True)
class Strip:
    """One strip: ``width`` columns starting at ``x0``, split into two
    half-strips that sweep North from their southern edge."""

    plan: WidthPlan
    x0: int
    half_strips: Tuple[HalfStripJob, HalfStripJob]

    @property
    def width(self) -> int:
        return self.plan.width


def split_rows(rows: int) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    """Split ``rows`` into two half-strip (y_start, lines) descriptors.

    The lower half covers rows ``[rows - lower_lines, rows)`` sweeping
    North from the bottom edge; the upper half covers ``[0, upper_lines)``
    sweeping North toward the top edge.  For odd heights the lower half
    takes the extra line.
    """
    upper_lines = rows // 2
    lower_lines = rows - upper_lines
    lower = (rows - 1, lower_lines)
    upper = (upper_lines - 1, upper_lines)
    return lower, upper


class StripSchedule:
    """The full strip decomposition of one subgrid shape."""

    #: Memoized schedules keyed by (compiled-plan identity, subgrid
    #: shape).  A schedule is immutable once built, and iterated or
    #: repeated ``apply_stencil`` calls reuse the same compiled plan, so
    #: rebuilding the decomposition every call is pure overhead.
    _cache: Dict[Tuple[int, Tuple[int, int]], "StripSchedule"] = {}
    _cache_keepalive: Dict[int, CompiledStencil] = {}
    _cache_limit = 256

    @classmethod
    def cached(
        cls, compiled: CompiledStencil, subgrid_shape: Tuple[int, int]
    ) -> "StripSchedule":
        """The memoized schedule for this plan and subgrid shape."""
        key = (id(compiled), subgrid_shape)
        schedule = cls._cache.get(key)
        if schedule is None or schedule.compiled is not compiled:
            if len(cls._cache) >= cls._cache_limit:
                cls._cache.clear()
                cls._cache_keepalive.clear()
            schedule = cls(compiled, subgrid_shape)
            cls._cache[key] = schedule
            # Keep the plan alive so its id() cannot be recycled while
            # the cache entry exists.
            cls._cache_keepalive[id(compiled)] = compiled
        return schedule

    def __init__(
        self, compiled: CompiledStencil, subgrid_shape: Tuple[int, int]
    ) -> None:
        self.compiled = compiled
        self.subgrid_shape = subgrid_shape
        self._cycles: Dict[MachineParams, int] = {}
        rows, cols = subgrid_shape
        if rows < 1 or cols < 1:
            raise ValueError(f"degenerate subgrid shape {subgrid_shape}")
        self.strips: List[Strip] = []
        x0 = 0
        (lower, upper) = split_rows(rows)
        for width in compiled.strip_widths(cols):
            plan = compiled.plans[width]
            jobs = tuple(
                HalfStripJob(x0=x0, y_start=y_start, lines=lines)
                for (y_start, lines) in (lower, upper)
                if lines > 0
            )
            if len(jobs) == 1:
                jobs = (jobs[0], HalfStripJob(x0=x0, y_start=0, lines=0))
            self.strips.append(Strip(plan=plan, x0=x0, half_strips=jobs))
            x0 += width

    @property
    def num_strips(self) -> int:
        return len(self.strips)

    @property
    def num_half_strips(self) -> int:
        return sum(
            1
            for strip in self.strips
            for job in strip.half_strips
            if job.lines > 0
        )

    def widths(self) -> List[int]:
        return [strip.width for strip in self.strips]

    def jobs(self) -> Iterator[Tuple[WidthPlan, HalfStripJob]]:
        for strip in self.strips:
            for job in strip.half_strips:
                if job.lines > 0:
                    yield strip.plan, job

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------

    def compute_cycles(self, params: MachineParams) -> int:
        """Closed-form node cycles to process the whole subgrid, summed
        once per ``params`` (the schedule never changes).

        Exact: tests assert equality with the cycle-stepped simulator.
        """
        total = self._cycles.get(params)
        if total is None:
            # Two threads racing here store the same value: no lock.
            total = self._cycles[params] = sum(
                params.strip_setup_cycles
                + sum(
                    strip.plan.half_strip_cycles(job.lines, params)
                    for job in strip.half_strips
                )
                for strip in self.strips
            )
        return total

    def describe(self) -> str:
        rows, cols = self.subgrid_shape
        widths = "+".join(str(width) for width in self.widths())
        return (
            f"{rows}x{cols} subgrid as strips [{widths}], "
            f"{self.num_half_strips} half-strips"
        )
