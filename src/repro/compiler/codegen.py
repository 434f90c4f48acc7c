"""Generation of the per-line register access patterns (dynamic parts).

For each phase of the ring-buffer rotation the compiler emits one *line
pattern*: the exact cycle-by-cycle sequence of dynamic instruction parts
the sequencer streams while processing one line of a half-strip --

1. loads of the leading edge (or, on the first line, the whole
   multistencil) into the ring-buffer slots for this phase;
2. a short pipeline-fill gap so the last load lands before use;
3. the multiply-add block: occurrences processed left to right in pairs,
   two chained threads interleaved to fill the pipe, each result
   accumulating into the register that holds its occurrence's *tagged*
   (bottom-left) data element;
4. a drain/reversal gap: long enough for the last writeback to land
   before its store, and for the memory pipe to reverse direction;
5. stores of the ``w`` results, consecutively (the paper's point: do not
   interleave stores with computation).

One op is one machine cycle, so line-pattern length *is* the line's cycle
cost; the closed-form cost model in :mod:`repro.compiler.plan` and the
cycle-stepped FPU agree by construction (and tests assert it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..machine.isa import AbstractOp, LoadOp, MAOp, NopOp, StoreOp
from ..machine.params import MachineParams
from ..stencil.pattern import ExtraTerm, StencilPattern  # noqa: F401 (re-exported)
from .allocation import RegisterAllocation


@dataclass(frozen=True)
class LinePattern:
    """One line's worth of dynamic instruction parts, one op per cycle."""

    phase: int
    full_load: bool
    ops: Tuple[AbstractOp, ...]
    num_loads: int
    num_ma: int
    num_stores: int
    drain_gap: int

    @property
    def cycles(self) -> int:
        return len(self.ops)

    @property
    def scratch_words(self) -> int:
        """Sequencer scratch data memory consumed by this pattern."""
        return len(self.ops)


def disassemble_ops(ops: Sequence[AbstractOp]) -> str:
    """Render a dynamic-part sequence one cycle per line.

    Load/store rows show the line-relative position and target register;
    multiply-add rows show thread, coefficient, data register, and the
    accumulator with first/last chain markers.
    """
    rows: List[str] = []
    for cycle, op in enumerate(ops):
        if isinstance(op, LoadOp):
            where = f"({op.row:+d},{op.col:+d})"
            buffer = f" [{op.buffer}]" if op.buffer else ""
            rows.append(f"{cycle:4d}  LOAD   r{op.reg:<2} <- src{where}{buffer}")
        elif isinstance(op, MAOp):
            marks = ("F" if op.first else "-") + ("L" if op.last else "-")
            rows.append(
                f"{cycle:4d}  MA t{op.thread} {marks}  "
                f"{op.coeff.describe()}[col {op.result_col}] * r{op.data_reg}"
                f" -> acc r{op.dest_reg}"
            )
        elif isinstance(op, StoreOp):
            rows.append(
                f"{cycle:4d}  STORE  r{op.reg:<2} -> result[col {op.result_col}]"
            )
        elif isinstance(op, NopOp):
            rows.append(f"{cycle:4d}  NOP    ({op.reason})")
        else:  # pragma: no cover - exhaustiveness guard
            rows.append(f"{cycle:4d}  ???    {op!r}")
    return "\n".join(rows)


def multiply_add_block(
    pattern: StencilPattern,
    alloc: RegisterAllocation,
    phase: int,
) -> Tuple[List[AbstractOp], Dict[int, int]]:
    """Build the multiply-add block for one line at the given phase.

    Returns the op list and a map ``occurrence -> offset of its last
    issue within the block`` (for drain-gap computation).

    Results are computed in pairs to exploit the WTL3164 timing: the two
    chained threads of a pair interleave on alternating cycles.  An odd
    trailing occurrence runs solo on thread 0, with dummy cycles on the
    odd slots (a single chain can only issue every other cycle).

    The pattern's fused extra terms close every occurrence's chain,
    each reading its data element from ``alloc.extra_registers``.
    """
    width = alloc.multistencil.width
    taps = pattern.taps
    extra_registers = alloc.extra_registers
    chain_length = pattern.issued_multiply_adds_per_point()
    ops: List[AbstractOp] = []
    last_issue: Dict[int, int] = {}

    def acc_register(occurrence: int) -> int:
        row, col = alloc.multistencil.accumulator_position(occurrence)
        return alloc.register_for(row, col, phase)

    def tap_op(occurrence: int, tap_index: int, thread: int) -> MAOp:
        if tap_index < len(taps):
            tap = taps[tap_index]
            if tap.is_constant_term:
                data_reg = alloc.unit_reg
            else:
                data_reg = alloc.register_for(
                    tap.dy, tap.dx + occurrence, phase
                )
            coeff = tap.coeff
        else:
            term_index = tap_index - len(taps)
            data_reg = extra_registers[term_index][occurrence]
            coeff = pattern.extra_terms[term_index].coeff
        return MAOp(
            coeff=coeff,
            data_reg=data_reg,
            dest_reg=acc_register(occurrence),
            thread=thread,
            first=(tap_index == 0),
            last=(tap_index == chain_length - 1),
            result_col=occurrence,
        )

    for pair in range(width // 2):
        left, right = 2 * pair, 2 * pair + 1
        for tap_index in range(chain_length):
            last_issue[left] = len(ops)
            ops.append(tap_op(left, tap_index, thread=0))
            last_issue[right] = len(ops)
            ops.append(tap_op(right, tap_index, thread=1))
    if width % 2:
        solo = width - 1
        for tap_index in range(chain_length):
            last_issue[solo] = len(ops)
            ops.append(tap_op(solo, tap_index, thread=0))
            if tap_index != chain_length - 1:
                ops.append(NopOp("solo-interleave"))
    return ops, last_issue


def drain_gap(
    ma_block_len: int,
    last_issue: Dict[int, int],
    params: MachineParams,
) -> int:
    """Stall cycles between the multiply-add block and the stores.

    Two constraints: the memory pipe reverses direction (coefficient
    reads -> result writes), costing ``pipe_reversal_penalty``; and the
    store of occurrence ``r`` (the ``r``-th store cycle) must not precede
    its chain's writeback, which lands ``writeback_latency`` cycles after
    its last issue.
    """
    gap = params.pipe_reversal_penalty
    for occurrence, issue_offset in last_issue.items():
        # The store of occurrence r executes at block-relative cycle
        # ma_block_len + gap + r * memory_access_cycles; the writeback
        # lands at the start of cycle issue_offset + writeback_latency,
        # so equality is safe.
        needed = (
            issue_offset
            + params.writeback_latency
            - ma_block_len
            - occurrence * params.memory_access_cycles
        )
        gap = max(gap, needed)
    return gap


def build_line_pattern(
    pattern: StencilPattern,
    alloc: RegisterAllocation,
    params: MachineParams,
    phase: int,
    *,
    full_load: bool,
) -> LinePattern:
    """Emit the complete dynamic-part sequence for one line."""
    ops: List[AbstractOp] = []
    transfer_nops = params.memory_access_cycles - 1

    def emit_load(load: LoadOp) -> None:
        """A register load occupies memory_access_cycles issue slots."""
        ops.append(load)
        ops.extend(NopOp("mem-transfer") for _ in range(transfer_nops))

    # 1. Loads.
    num_loads = 0
    if full_load:
        # First line of a half-strip: fill every ring slot in the span
        # (elements at gap rows are loaded too; they age into occupied
        # rows on later lines).
        for ring in alloc.rings:
            for row in range(ring.column.top, ring.column.bottom + 1):
                emit_load(
                    LoadOp(
                        reg=ring.register_for(row, phase),
                        row=row,
                        col=ring.column.x,
                    )
                )
                num_loads += 1
    else:
        for ring in alloc.rings:
            emit_load(
                LoadOp(
                    reg=ring.load_register(phase),
                    row=ring.column.top,
                    col=ring.column.x,
                )
            )
            num_loads += 1

    # 1b. Fused extra-term loads: one element per occurrence per term,
    # fresh every line (offset (0, 0) of a second source admits no
    # reuse across results or lines).
    for term, registers in zip(pattern.extra_terms, alloc.extra_registers):
        for occurrence, reg in enumerate(registers):
            emit_load(
                LoadOp(reg=reg, row=0, col=occurrence, buffer=term.source)
            )
            num_loads += 1

    # 2. Pipeline fill: the last load's value lands load_latency cycles
    # after issue; the first multiply-add may read it.
    ops.extend(NopOp("pipeline-fill") for _ in range(params.load_latency))

    # 3. Multiply-adds.
    ma_ops, last_issue = multiply_add_block(pattern, alloc, phase)
    ops.extend(ma_ops)

    # 4. Drain + reversal gap.
    gap = drain_gap(len(ma_ops), last_issue, params)
    ops.extend(NopOp("drain") for _ in range(gap))

    # 5. Stores, consecutive, left to right (each occupying
    # memory_access_cycles issue slots, like loads).
    width = alloc.multistencil.width
    for occurrence in range(width):
        row, col = alloc.multistencil.accumulator_position(occurrence)
        ops.append(
            StoreOp(
                reg=alloc.register_for(row, col, phase),
                result_col=occurrence,
            )
        )
        ops.extend(NopOp("mem-transfer") for _ in range(transfer_nops))

    return LinePattern(
        phase=phase,
        full_load=full_load,
        ops=tuple(ops),
        num_loads=num_loads,
        num_ma=len(ma_ops),
        num_stores=width,
        drain_gap=gap,
    )
