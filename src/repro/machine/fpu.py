"""A cycle-stepped model of the Weitek WTL3164 floating-point unit.

The pipeline rules come from paper section 4.2:

* only chained multiply-add operations are issued (two flops per cycle);
* a multiplication started on cycle *k* becomes an operand of the
  addition started on cycle *k+2*;
* the result of that addition is stored into the destination register on
  cycle *k+4*;
* one operand of each multiplication must come from memory (the streamed
  coefficient);
* two chained multiply-add threads are interleaved to fill the pipe, so
  each thread issues every other cycle;
* the interface chip between the FPU and memory introduces a cycle of
  latency, overcome by pipelining, with a penalty every time the
  direction of the pipe is reversed.

The model executes concrete :class:`~repro.machine.isa.Instr` streams
against a :class:`~repro.machine.memory.NodeMemory`, producing **both**
numerically exact results (float32 with per-operation rounding -- the
WTL3164 is a chained, not fused, multiply-add, so the product rounds
before the add) **and** exact cycle counts.  It also validates the
schedule: reversal spacing, chain protocol, register validity, and
store-before-writeback hazards all raise :class:`ScheduleError`, so a
register-allocation or code-generation bug fails loudly instead of
producing quietly wrong numbers.

The machine is synchronous SIMD -- one sequencer streams one
instruction stream to every node's FPU -- so one model steps them all.
Its control state (pipeline events, the chain protocol, register
validity, the memory pipe's direction, the cycle count) is scalar.
Register contents, products and chain sums are what a memory read
returns: a float32 word from a one-node memory of 2-D buffers, or a
float32 vector, one lane per node and batch entry, from a memory
holding whole-machine stacks.  Every lane runs the same float32 chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .isa import Instr, LoadOp, MAOp, MemDirection, NopOp, StoreOp
from .memory import NodeMemory
from .params import MachineParams


class ScheduleError(Exception):
    """The instruction stream violates a pipeline or protocol constraint."""


@dataclass
class FpuStats:
    """Cycle accounting for one FPU run."""

    cycles: int = 0
    ma_issues: int = 0
    loads: int = 0
    stores: int = 0
    stalls: int = 0
    stall_reasons: Dict[str, int] = field(default_factory=dict)

    def note_stall(self, reason: str) -> None:
        self.stalls += 1
        self.stall_reasons[reason] = self.stall_reasons.get(reason, 0) + 1


@dataclass
class _AddEvent:
    """A product entering the adder, scheduled at multiply-issue + 2."""

    thread: int
    product: np.ndarray
    first: bool
    last: bool
    addend_reg: int
    dest_reg: int


class Wtl3164:
    """The floating-point units of every node a memory spans, stepped a
    cycle at a time as one.

    The object is stateful across calls so a sequencer can feed it one
    line of instructions at a time, interleaved with stall cycles for
    its own overhead; :meth:`drain` settles trailing pipeline events.
    """

    def __init__(
        self,
        params: MachineParams,
        memory: NodeMemory,
        *,
        zero_reg: int = 0,
        unit_reg: Optional[int] = None,
    ) -> None:
        self.params = params
        self.memory = memory
        self.zero_reg = zero_reg
        self.unit_reg = unit_reg
        # Each register holds what a read returned: a word, or lanes.
        self.regs = [np.float32(0.0)] * params.registers
        self.valid = np.zeros(params.registers, dtype=bool)
        self.valid[zero_reg] = True
        if unit_reg is not None:
            self.regs[unit_reg] = np.float32(1.0)
            self.valid[unit_reg] = True
        self.cycle = 0
        self.stats = FpuStats()
        self._pending_writes: Dict[int, List[Tuple[int, np.ndarray]]] = {}
        self._add_events: Dict[int, List[_AddEvent]] = {}
        self._chain_open: Dict[int, bool] = {}
        self._chain_sum: Dict[int, np.ndarray] = {}
        self._last_mem_direction: Optional[MemDirection] = None
        self._last_mem_cycle: Optional[int] = None

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    def run(self, instrs) -> None:
        """Execute a sequence of instructions, one per cycle."""
        for instr in instrs:
            self.step(instr)

    def step(self, instr: Instr) -> None:
        """Execute one instruction cycle."""
        self._begin_cycle()
        op = instr.op
        if isinstance(op, NopOp) or (isinstance(op, MAOp) and op.is_dummy):
            reason = op.reason if isinstance(op, NopOp) else "dummy-ma"
            self.stats.note_stall(reason)
        elif isinstance(op, LoadOp):
            self._do_load(instr)
        elif isinstance(op, MAOp):
            self._do_multiply_add(instr)
        elif isinstance(op, StoreOp):
            self._do_store(instr)
        else:  # pragma: no cover - exhaustiveness guard
            raise ScheduleError(f"unknown op {op!r}")
        self.cycle += 1
        self.stats.cycles += 1

    def stall(self, cycles: int, reason: str = "sequencer") -> None:
        """Advance time without issuing instructions (sequencer overhead).

        Pipeline events (writebacks, adds) continue to land.
        """
        for _ in range(cycles):
            self._begin_cycle()
            self.stats.note_stall(reason)
            self.cycle += 1
            self.stats.cycles += 1

    def drain(self) -> int:
        """Advance until all pending pipeline events have landed.

        Returns the number of drain cycles consumed.
        """
        drained = 0
        while self._pending_writes or self._add_events:
            self._begin_cycle()
            self.stats.note_stall("drain")
            self.cycle += 1
            self.stats.cycles += 1
            drained += 1
        for thread, open_ in self._chain_open.items():
            if open_:
                raise ScheduleError(
                    f"thread {thread} ends with an unclosed multiply-add chain"
                )
        return drained

    # ------------------------------------------------------------------
    # Cycle phases
    # ------------------------------------------------------------------

    def _begin_cycle(self) -> None:
        """Land writebacks and fire adds scheduled for this cycle.

        Writebacks apply at the start of their cycle, so a register read
        in the same cycle sees the *new* value; the "just barely" reuse
        the paper describes therefore requires reads to finish on the
        previous cycle, which the generated schedules do.
        """
        for reg, value in self._pending_writes.pop(self.cycle, ()):
            self.regs[reg] = value
            self.valid[reg] = True
        for event in self._add_events.pop(self.cycle, ()):
            self._fire_add(event)

    def _fire_add(self, event: _AddEvent) -> None:
        if event.first:
            base = self.regs[event.addend_reg]
        else:
            if not self._chain_open.get(event.thread):
                raise ScheduleError(
                    f"thread {event.thread}: chained add with no open chain"
                )
            base = self._chain_sum[event.thread]
        total = base + event.product
        if event.last:
            when = self.cycle + self.params.add_to_writeback_cycles
            self._pending_writes.setdefault(when, []).append(
                (event.dest_reg, total)
            )
            self._chain_open[event.thread] = False
        else:
            self._chain_sum[event.thread] = total
            self._chain_open[event.thread] = True

    # ------------------------------------------------------------------
    # Instruction semantics
    # ------------------------------------------------------------------

    def _do_load(self, instr: Instr) -> None:
        op = instr.op
        self._check_reg(op.reg, "load destination")
        if op.reg == self.zero_reg or op.reg == self.unit_reg:
            raise ScheduleError(
                f"load into reserved register {op.reg} at cycle {self.cycle}"
            )
        self._touch_memory(MemDirection.READ)
        value = self.memory.read(instr.mem)
        when = self.cycle + self.params.load_latency
        self._pending_writes.setdefault(when, []).append((op.reg, value))
        self.stats.loads += 1

    def _do_multiply_add(self, instr: Instr) -> None:
        op = instr.op
        self._check_reg(op.data_reg, "multiply operand")
        self._check_reg(op.dest_reg, "multiply-add destination")
        if not self.valid[op.data_reg]:
            raise ScheduleError(
                f"multiply reads uninitialized register {op.data_reg} "
                f"at cycle {self.cycle}"
            )
        if op.dest_reg == self.zero_reg or op.dest_reg == self.unit_reg:
            raise ScheduleError(
                f"multiply-add writes reserved register {op.dest_reg} "
                f"at cycle {self.cycle}"
            )
        if op.first and self._chain_open.get(op.thread):
            raise ScheduleError(
                f"thread {op.thread}: new chain started while one is open "
                f"at cycle {self.cycle}"
            )
        self._touch_memory(MemDirection.READ)
        product = self.memory.read(instr.mem) * self.regs[op.data_reg]
        when = self.cycle + self.params.mult_to_add_cycles
        self._add_events.setdefault(when, []).append(
            _AddEvent(
                thread=op.thread,
                product=product,
                first=op.first,
                last=op.last,
                addend_reg=self.zero_reg,
                dest_reg=op.dest_reg,
            )
        )
        if op.first:
            # The chain officially opens when its first add fires, but we
            # mark it now so a same-thread protocol violation two cycles
            # later is still caught.
            self._chain_open[op.thread] = True
            self._chain_sum[op.thread] = np.float32(0.0)
        self.stats.ma_issues += 1

    def _do_store(self, instr: Instr) -> None:
        op = instr.op
        self._check_reg(op.reg, "store source")
        if not self.valid[op.reg]:
            raise ScheduleError(
                f"store reads uninitialized register {op.reg} "
                f"at cycle {self.cycle}"
            )
        if self._write_pending_for(op.reg):
            raise ScheduleError(
                f"store of register {op.reg} at cycle {self.cycle} precedes "
                "its pending writeback (result not yet drained)"
            )
        self._touch_memory(MemDirection.WRITE)
        self.memory.write(instr.mem, self.regs[op.reg])
        self.stats.stores += 1

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------

    def _check_reg(self, reg: int, what: str) -> None:
        if not 0 <= reg < self.params.registers:
            raise ScheduleError(
                f"{what} register {reg} outside the register file "
                f"at cycle {self.cycle}"
            )

    def _write_pending_for(self, reg: int) -> bool:
        return any(
            pending_reg == reg
            for writes in self._pending_writes.values()
            for pending_reg, _ in writes
        )

    def _touch_memory(self, direction: MemDirection) -> None:
        if (
            self._last_mem_direction is not None
            and direction is not self._last_mem_direction
        ):
            gap = self.cycle - self._last_mem_cycle - 1
            if gap < self.params.pipe_reversal_penalty:
                raise ScheduleError(
                    f"memory pipe reversed at cycle {self.cycle} with only "
                    f"{gap} intervening cycles "
                    f"(need {self.params.pipe_reversal_penalty})"
                )
        self._last_mem_direction = direction
        self._last_mem_cycle = self.cycle
