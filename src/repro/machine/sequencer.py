"""The sequencer: streams dynamic parts with run-time addresses.

One :class:`Sequencer` drives every node's FPU through a half-strip --
the CM-2 streams one instruction stream to all of them: it walks the
compiled line patterns (the contents of its scratch data memory),
generates the memory address for each cycle exactly as the real
sequencer ALU does from run-time base parameters, and charges its own
overhead cycles -- the per-invocation dispatch and the per-line cost of
the loop-closing branch that cannot share a cycle with a dynamic issue.
An address names one word of every node's (and batch entry's) buffer:
the FPU model steps them as lanes of one datapath.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..stencil.pattern import CoeffKind, StencilPattern
from .fpu import Wtl3164
from .isa import (
    ONES_BUFFER,
    Instr,
    LoadOp,
    MAOp,
    MemRef,
    NopOp,
    StoreOp,
    const_buffer_name,
)
from .memory import NodeMemory
from .microcode import MicrocodeRoutine
from .params import MachineParams


@dataclass(frozen=True)
class HalfStripJob:
    """Run-time parameters of one half-strip invocation.

    Coordinates are in unpadded subgrid space.  The sweep moves North:
    line ``n`` computes results for subgrid row ``y_start - n``, columns
    ``[x0, x0 + width)``.

    Attributes:
        x0: leftmost result column of the strip.
        y_start: subgrid row of the first (southernmost) line.
        lines: number of lines to process.
    """

    x0: int
    y_start: int
    lines: int


class Sequencer:
    """Drives the FPU through half-strips of a compiled plan.

    Attributes:
        source_buffer: name of the padded source buffer in node memory.
        result_buffer: name of the (unpadded) result buffer.
        halo: padding width of the source buffer on every side.
    """

    def __init__(
        self,
        params: MachineParams,
        memory: NodeMemory,
        *,
        source_buffer: str,
        result_buffer: str,
        halo: int,
    ) -> None:
        self.params = params
        self.memory = memory
        self.source_buffer = source_buffer
        self.result_buffer = result_buffer
        self.halo = halo

    def resolve(self, op, y: int, x0: int) -> Optional[MemRef]:
        """Compute the memory address for one dynamic part, as the
        sequencer ALU does from the line base ``(y, x0)``."""
        if isinstance(op, LoadOp):
            if op.buffer is not None:
                # Fused extra-term load: the named array is unpadded.
                return MemRef(op.buffer, y + op.row, x0 + op.col)
            return MemRef(
                self.source_buffer,
                self.halo + y + op.row,
                self.halo + x0 + op.col,
            )
        if isinstance(op, MAOp):
            coeff = op.coeff
            if coeff.kind is CoeffKind.ARRAY:
                return MemRef(coeff.name, y, x0 + op.result_col)
            if coeff.kind is CoeffKind.SCALAR:
                return MemRef(const_buffer_name(coeff.value), 0, 0)
            return MemRef(ONES_BUFFER, 0, 0)
        if isinstance(op, StoreOp):
            return MemRef(self.result_buffer, y, x0 + op.result_col)
        if isinstance(op, NopOp):
            return None
        raise TypeError(f"unknown op {op!r}")  # pragma: no cover

    def run_half_strip(
        self,
        plan,
        job: HalfStripJob,
        fpu: Wtl3164,
        routine: Optional[MicrocodeRoutine] = None,
    ) -> None:
        """Execute one half-strip on the given FPU.

        ``plan`` is a :class:`repro.compiler.plan.WidthPlan`; ``routine``
        overrides the default half-strip microcode descriptor (used by
        the full-strip ablation).
        """
        dispatch = (
            routine.dispatch_cycles
            if routine is not None
            else self.params.half_strip_dispatch_cycles
        )
        line_overhead = (
            routine.line_overhead_cycles
            if routine is not None
            else self.params.sequencer_line_overhead
        )
        fpu.stall(dispatch, "dispatch")
        for line in range(job.lines):
            y = job.y_start - line
            line_pattern = plan.pattern_for_line(line)
            for op in line_pattern.ops:
                fpu.step(Instr(op=op, mem=self.resolve(op, y, job.x0)))
            fpu.stall(line_overhead, "line-overhead")
