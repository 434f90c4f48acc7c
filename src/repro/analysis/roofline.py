"""Bound analysis: is a compiled stencil compute- or memory-limited?

Paper section 4.4: "To make best use of memory bandwidth, the compiler
endeavors to exploit the registers of the floating-point unit; the idea
is to use a quantity as many times as possible once it has been loaded
into a register."  This module quantifies that: for each width plan it
computes the steady-state cycles the multiply-adds *must* take, the
cycles the memory traffic *must* take (every coefficient streams once
per multiply-add; data loads and result stores pay the interface cost),
and which of the two binds -- a roofline in cycle space.

The multistencil is exactly the lever that moves patterns from the
memory-bound to the compute-bound side: at width 1 the 5-point cross
moves 3 words of data per result; at width 8, 1.25.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..compiler.plan import CompiledStencil, WidthPlan
from ..machine.params import MachineParams


@dataclass(frozen=True)
class RooflinePoint:
    """Steady-state lower bounds for one width plan, per line of results.

    Attributes:
        width: results per line.
        compute_cycles: multiply-add issue slots (one per tap and fused
            extra term per result, plus the idle slots a solo trailing
            chain forces).
        memory_cycles: interface-chip occupancy: one streamed coefficient
            word per multiply-add plus ``memory_access_cycles`` per
            explicit load and store.
        actual_cycles: what the generated line pattern really takes
            (compute + memory serialized, plus fill/drain).
    """

    width: int
    compute_cycles: int
    memory_cycles: int
    actual_cycles: int

    @property
    def bound(self) -> str:
        """Which resource dominates the steady-state line."""
        return "memory" if self.memory_cycles > self.compute_cycles else "compute"

    @property
    def balance(self) -> float:
        """memory cycles / compute cycles: > 1 means memory-bound."""
        return self.memory_cycles / self.compute_cycles

    @property
    def efficiency(self) -> float:
        """max(compute, memory) lower bound over the actual line cycles.

        How close the generated schedule comes to the binding resource's
        floor; the gap is fill/drain/serialization the architecture
        forces (loads cannot overlap compute because coefficients own
        the memory port -- paper section 5.3).
        """
        floor = max(self.compute_cycles, self.memory_cycles)
        return floor / self.actual_cycles


def analyze_plan(plan: WidthPlan, params: MachineParams) -> RooflinePoint:
    """The steady-state roofline point of one width plan."""
    line = plan.steady[0]
    pattern = plan.allocation.multistencil.pattern
    # Real multiply-add issues per line, fused extra terms included.
    issues = plan.width * pattern.issued_multiply_adds_per_point()
    # line.num_ma counts the whole block including the idle slots a
    # trailing solo chain forces; both are compute-side occupancy.
    compute = line.num_ma
    memory = (
        issues  # one streamed coefficient word per multiply-add
        + (line.num_loads + line.num_stores) * params.memory_access_cycles
    )
    return RooflinePoint(
        width=plan.width,
        compute_cycles=compute,
        memory_cycles=memory,
        actual_cycles=line.cycles,
    )


def analyze(
    compiled: CompiledStencil, params: Optional[MachineParams] = None
) -> Dict[int, RooflinePoint]:
    """Roofline points for every available width, widest first."""
    params = params or compiled.params
    return {
        width: analyze_plan(plan, params)
        for width, plan in compiled.plans.items()
    }


def describe(compiled: CompiledStencil) -> str:
    """A small table of the bound analysis."""
    lines = [
        f"{'width':>5} {'compute':>8} {'memory':>7} {'actual':>7} "
        f"{'bound':>8} {'efficiency':>11}"
    ]
    for width, point in analyze(compiled).items():
        lines.append(
            f"{width:>5} {point.compute_cycles:>8} {point.memory_cycles:>7} "
            f"{point.actual_cycles:>7} {point.bound:>8} "
            f"{point.efficiency:>10.1%}"
        )
    return "\n".join(lines)
