"""Compiled stencils: per-width plans plus their closed-form cost model.

The compiler attempts multistencil widths 8, 4, 2 and 1; "it is all right
if some of these don't work" (paper section 5.3).  The run-time library
later shaves off, at each step, the widest strip for which a workable
plan exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..machine.params import MachineParams
from ..stencil.multistencil import multistencil_widths
from ..stencil.pattern import CoeffKind, StencilPattern
from .allocation import AllocationError, RegisterAllocation, allocate
from .codegen import LinePattern, build_line_pattern


class StencilCompileError(Exception):
    """No multistencil width fits the machine (pattern too large)."""


@dataclass(frozen=True)
class WidthPlan:
    """Everything needed to run one multistencil width.

    Attributes:
        width: results per line.
        allocation: the ring-buffer register assignment.
        prologue: line pattern for the first line of a half-strip (full
            multistencil load; always phase 0).
        steady: line patterns for phases ``0 .. unroll-1``; line ``n > 0``
            of a half-strip uses ``steady[n % unroll]``.
    """

    width: int
    allocation: RegisterAllocation
    prologue: LinePattern
    steady: Tuple[LinePattern, ...]

    @property
    def unroll(self) -> int:
        return self.allocation.unroll

    @property
    def steady_line_cycles(self) -> int:
        return self.steady[0].cycles

    @property
    def prologue_cycles(self) -> int:
        return self.prologue.cycles

    @property
    def scratch_words(self) -> int:
        """Sequencer scratch data memory the unrolled patterns consume."""
        return self.prologue.scratch_words + sum(
            line.scratch_words for line in self.steady
        )

    def pattern_for_line(self, line: int) -> LinePattern:
        """The dynamic-part sequence for the ``line``-th line (0-based)."""
        if line == 0:
            return self.prologue
        return self.steady[line % self.unroll]

    def half_strip_cycles(self, lines: int, params: MachineParams) -> int:
        """Closed-form node cycles to process one half-strip of ``lines``
        lines, including sequencer overhead.

        This is exact: tests assert equality with the cycle-stepped FPU.
        """
        if lines <= 0:
            return 0
        return (
            params.half_strip_dispatch_cycles
            + self.prologue_cycles
            + (lines - 1) * self.steady_line_cycles
            + lines * params.sequencer_line_overhead
        )

    def describe(self) -> str:
        return (
            f"width {self.width}: {self.allocation.describe()}; "
            f"prologue {self.prologue_cycles} cycles, steady line "
            f"{self.steady_line_cycles} cycles, scratch {self.scratch_words} words"
        )

    def disassemble(self, *, phase: int = 0, prologue: bool = False) -> str:
        """A readable listing of one line pattern's dynamic parts.

        One row per machine cycle -- what the sequencer's scratch data
        memory holds for this phase.  A debugging aid in the spirit of
        the Lisp prototype's microcode environment.
        """
        from .codegen import disassemble_ops

        line = self.prologue if prologue else self.steady[phase % self.unroll]
        kind = "prologue" if prologue else f"steady phase {line.phase}"
        header = (
            f"; width {self.width}, {kind}: {line.cycles} cycles, "
            f"{line.num_loads} loads, {line.num_ma} multiply-adds, "
            f"{line.num_stores} stores, drain {line.drain_gap}"
        )
        return header + "\n" + disassemble_ops(line.ops)


class CompiledStencil:
    """The compiler's output for one stencil pattern.

    Attributes:
        pattern: the compiled stencil.
        params: the machine compiled for.
        plans: feasible width plans, keyed by width.
        rejections: why each infeasible width was rejected (the feedback
            the paper's planned directive would surface).
    """

    def __init__(
        self,
        pattern: StencilPattern,
        params: MachineParams,
        plans: Dict[int, WidthPlan],
        rejections: Dict[int, str],
    ) -> None:
        if not plans:
            raise StencilCompileError(
                f"no multistencil width of {pattern.name or 'stencil'} fits "
                f"the machine: {rejections}"
            )
        self.pattern = pattern
        self.params = params
        self.plans = dict(sorted(plans.items(), reverse=True))
        self.rejections = dict(rejections)

    @property
    def widths(self) -> Tuple[int, ...]:
        """Feasible widths, widest first."""
        return tuple(self.plans)

    @property
    def max_width(self) -> int:
        return max(self.plans)

    def plan_for(self, remaining_width: int) -> WidthPlan:
        """The widest feasible plan not exceeding the remaining strip width.

        This is the run-time library's shaving rule: a subgrid axis of
        length 21 becomes strips of 8, 8, 4 and 1.
        """
        for width, plan in self.plans.items():
            if width <= remaining_width:
                return plan
        raise StencilCompileError(
            f"no plan fits a remaining width of {remaining_width} "
            f"(available: {self.widths})"
        )

    def strip_widths(self, axis_length: int) -> List[int]:
        """Decompose a subgrid axis into strip widths, greedily widest-first."""
        if axis_length < 1:
            raise ValueError("axis length must be positive")
        widths: List[int] = []
        remaining = axis_length
        while remaining > 0:
            plan = self.plan_for(remaining)
            widths.append(plan.width)
            remaining -= plan.width
        return widths

    def scalar_coefficient_values(self) -> Tuple[float, ...]:
        """Distinct scalar coefficient values needing constant pages, the
        taps' then the fused extra terms'.

        Distinctness is by representation, not numeric equality: -0.0
        and 0.0 compare equal but name different constant pages.
        """
        values: Dict[str, float] = {}
        for term in self.pattern.taps + self.pattern.extra_terms:
            if term.coeff.kind is CoeffKind.SCALAR:
                value = float(term.coeff.value)
                values.setdefault(repr(value), value)
        return tuple(values.values())

    def describe(self) -> str:
        lines = [f"compiled {self.pattern.describe()}"]
        lines += [f"  {plan.describe()}" for plan in self.plans.values()]
        lines += [
            f"  width {width} rejected: {reason}"
            for width, reason in self.rejections.items()
        ]
        return "\n".join(lines)


def compile_pattern(
    pattern: StencilPattern,
    params: Optional[MachineParams] = None,
    widths: Sequence[int] = multistencil_widths(),
    *,
    strategy: str = "paper",
) -> CompiledStencil:
    """Compile a stencil pattern into per-width plans.

    Widths failing register allocation or exceeding sequencer scratch
    memory are recorded as rejections rather than errors; only a pattern
    with *no* feasible width raises :class:`StencilCompileError`.  Each
    fused extra term needs ``width`` more registers after the ring
    buffers (its data elements, loaded fresh every line); a width whose
    ring buffers leave too few is rejected.

    ``strategy`` selects the ring-sizing approach: the paper's
    compression heuristic or the LCM-minimizing dynamic program.
    """
    params = params or MachineParams()
    plans: Dict[int, WidthPlan] = {}
    rejections: Dict[int, str] = {}
    for width in widths:
        try:
            allocation = allocate(pattern, width, params, strategy=strategy)
        except AllocationError as exc:
            rejections[width] = str(exc)
            continue
        needed = width * len(pattern.extra_terms)
        spare = params.registers - allocation.total_registers
        if needed > spare:
            rejections[width] = (
                f"extra terms need {needed} more registers; only {spare} "
                "remain after the ring buffers"
            )
            continue
        prologue = build_line_pattern(
            pattern, allocation, params, phase=0, full_load=True
        )
        steady = tuple(
            build_line_pattern(
                pattern, allocation, params, phase=phase, full_load=False
            )
            for phase in range(allocation.unroll)
        )
        plan = WidthPlan(
            width=width,
            allocation=allocation,
            prologue=prologue,
            steady=steady,
        )
        if plan.scratch_words > params.scratch_memory_words:
            rejections[width] = (
                f"unrolled register access patterns need {plan.scratch_words} "
                f"scratch words; only {params.scratch_memory_words} available"
            )
            continue
        plans[width] = plan
    return CompiledStencil(pattern, params, plans, rejections)
