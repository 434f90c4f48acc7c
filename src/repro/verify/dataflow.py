"""Microcode dataflow checking: an abstract interpreter over line patterns.

The compiler's correctness argument is hand-waved in the paper ("the
relevant state of the ring buffers cycles with period LCM(sizes)") and
spot-checked here only by executing plans on the cycle-stepped FPU.  This
module *proves* the schedule properties statically, for an arbitrary
:class:`~repro.compiler.plan.WidthPlan`, by symbolic execution of the
abstract op streams (one op = one machine cycle):

* every multiply-add reads exactly the source element its tap demands
  (tracked by *element identity*, independent of the register
  allocation), with the value already landed (loads take
  ``load_latency`` cycles issue-to-use) -- ``RS401``/``RS406``;
* no load clobbers a register whose element is still needed -- ``RS402``;
* stores never precede their chain's writeback, the memory pipe gets its
  reversal gap, and register transfers occupy their full
  ``memory_access_cycles`` issue slots -- ``RS403``;
* each line stores every result column exactly once, from the completed
  accumulation of that column -- ``RS404``;
* the pattern metadata (op counts, drain gap, uniform steady-line cycle
  counts) agrees with the op streams, so the closed-form cost model in
  :mod:`repro.compiler.plan` cannot diverge from what the FPU would
  execute -- ``RS405``.

Coordinate model: during line ``n`` of an upward sweep, the line-relative
position ``(row, col)`` addresses the absolute source element
``(row - n, col)``.  A value is one of::

    ("const", 0.0 | 1.0)        reserved zero/unit registers
    ("src", abs_row, col)       primary-source element
    ("ext", buffer, line, col)  fused extra-term element (fresh per line)
    ("acc", line, col)          a completed accumulation
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..compiler.plan import WidthPlan
from ..compiler.ringbuf import column_span
from ..machine.isa import AbstractOp, LoadOp, MAOp, NopOp, StoreOp
from ..machine.params import MachineParams
from .diagnostics import Diagnostic, plan_error

#: Stop piling up diagnostics on a thoroughly broken plan.
MAX_DIAGNOSTICS = 40

Value = Tuple
_ZERO: Value = ("const", 0.0)
_UNIT: Value = ("const", 1.0)


def _describe_value(value: Optional[Value]) -> str:
    if value is None:
        return "undefined"
    kind = value[0]
    if kind == "const":
        return f"constant {value[1]}"
    if kind == "src":
        return f"source element (row {value[1]}, col {value[2]})"
    if kind == "ext":
        return f"{value[1]} element of line {value[2]}, col {value[3]}"
    if kind == "acc":
        return f"accumulation of line {value[1]}, result col {value[2]}"
    return repr(value)


class _Simulator:
    """Symbolic register file plus per-thread chain state."""

    def __init__(self, plan: WidthPlan, params: MachineParams) -> None:
        self.plan = plan
        self.params = params
        alloc = plan.allocation
        pattern = alloc.multistencil.pattern
        self.taps = pattern.taps
        self.extra_terms = pattern.extra_terms
        self.chain_length = pattern.issued_multiply_adds_per_point()
        self.reserved: Set[int] = {alloc.zero_reg}
        self.regs: Dict[int, Tuple[Value, int]] = {alloc.zero_reg: (_ZERO, 0)}
        if alloc.unit_reg is not None:
            self.reserved.add(alloc.unit_reg)
            self.regs[alloc.unit_reg] = (_UNIT, 0)
        #: occupied rows per multistencil column, for clobber-death checks
        self.column_rows: Dict[int, Tuple[int, ...]] = {
            ring.column.x: ring.column.rows for ring in alloc.rings
        }
        self.diagnostics: List[Diagnostic] = []
        self.cycle = 0

    # ------------------------------------------------------------------

    def report(self, code: str, message: str) -> None:
        if len(self.diagnostics) < MAX_DIAGNOSTICS:
            self.diagnostics.append(plan_error(code, message))

    def _expected_operand(
        self, index: int, occurrence: int, line: int
    ) -> Tuple[object, Optional[Value]]:
        """``(expected coefficient, expected data value)`` for chain slot
        ``index`` of ``occurrence`` on ``line``."""
        if index < len(self.taps):
            tap = self.taps[index]
            if tap.is_constant_term:
                return tap.coeff, _UNIT
            return tap.coeff, ("src", tap.dy - line, tap.dx + occurrence)
        term = self.extra_terms[index - len(self.taps)]
        return term.coeff, ("ext", term.source, line, occurrence)

    def _still_needed(self, value: Value, line: int) -> bool:
        """Whether ``value`` would still be read on ``line`` or later."""
        if value[0] == "src":
            _, abs_row, col = value
            rows = self.column_rows.get(col, ())
            return any(row - abs_row >= line for row in rows)
        if value[0] == "ext":
            return value[2] == line  # extra elements die with their line
        return False  # accumulations are consumed by their line's store

    # ------------------------------------------------------------------

    def run_line(self, line: int, ops: Sequence[AbstractOp], where: str) -> None:
        width = self.plan.width
        params = self.params
        chains: Dict[int, Optional[dict]] = {}
        stored: Dict[int, int] = {}
        transfer_left = 0
        last_ma_index: Optional[int] = None
        first_store_index: Optional[int] = None
        counts = {"loads": 0, "ma": 0, "stores": 0}

        for index, op in enumerate(ops):
            cycle = self.cycle + index
            if transfer_left > 0:
                if not isinstance(op, NopOp):
                    self.report(
                        "RS403",
                        f"{where}, cycle {index}: {type(op).__name__} issued "
                        "inside a register transfer; loads and stores occupy "
                        f"{params.memory_access_cycles} issue slots",
                    )
                transfer_left -= 1

            if isinstance(op, LoadOp):
                counts["loads"] += 1
                self._run_load(op, line, cycle, index, where)
                transfer_left = params.memory_access_cycles - 1
            elif isinstance(op, MAOp):
                counts["ma"] += 1
                last_ma_index = index
                self._run_ma(op, line, cycle, index, where, chains, width)
            elif isinstance(op, StoreOp):
                counts["stores"] += 1
                if first_store_index is None:
                    first_store_index = index
                self._run_store(op, line, cycle, index, where, stored)
                transfer_left = params.memory_access_cycles - 1

        self.cycle += len(ops)
        self._check_line_shape(
            line, ops, where, chains, stored, counts,
            last_ma_index, first_store_index,
        )

    # ------------------------------------------------------------------

    def _run_load(
        self, op: LoadOp, line: int, cycle: int, index: int, where: str
    ) -> None:
        if op.buffer is None:
            value: Value = ("src", op.row - line, op.col)
        else:
            value = ("ext", op.buffer, line, op.col)
        if op.reg in self.reserved:
            self.report(
                "RS402",
                f"{where}, cycle {index}: load clobbers reserved register "
                f"r{op.reg}",
            )
            return
        old = self.regs.get(op.reg)
        if old is not None and self._still_needed(old[0], line):
            self.report(
                "RS402",
                f"{where}, cycle {index}: load into r{op.reg} clobbers "
                f"live {_describe_value(old[0])}",
            )
        self.regs[op.reg] = (value, cycle + self.params.load_latency)

    def _run_ma(
        self,
        op: MAOp,
        line: int,
        cycle: int,
        index: int,
        where: str,
        chains: Dict[int, Optional[dict]],
        width: int,
    ) -> None:
        if op.is_dummy:
            return
        occurrence = op.result_col
        if not 0 <= occurrence < width:
            self.report(
                "RS406",
                f"{where}, cycle {index}: multiply-add targets result "
                f"column {occurrence}, outside width {width}",
            )
            return
        state = chains.get(op.thread)
        if op.first:
            if state is not None:
                self.report(
                    "RS406",
                    f"{where}, cycle {index}: thread {op.thread} opens a new "
                    f"chain while column {state['occ']}'s chain is "
                    f"unfinished at slot {state['index']}",
                )
            state = {"occ": occurrence, "index": 0, "dest": op.dest_reg}
            chains[op.thread] = state
        else:
            if state is None:
                self.report(
                    "RS406",
                    f"{where}, cycle {index}: chain continuation on thread "
                    f"{op.thread} with no open chain",
                )
                state = {"occ": occurrence, "index": 0, "dest": op.dest_reg}
                chains[op.thread] = state
            else:
                state["index"] += 1
        if state["occ"] != occurrence or state["dest"] != op.dest_reg:
            self.report(
                "RS406",
                f"{where}, cycle {index}: chain on thread {op.thread} "
                f"switches from column {state['occ']} (acc r{state['dest']}) "
                f"to column {occurrence} (acc r{op.dest_reg}) mid-chain",
            )
            state["occ"] = occurrence
            state["dest"] = op.dest_reg
        slot = state["index"]
        if slot >= self.chain_length:
            self.report(
                "RS406",
                f"{where}, cycle {index}: chain for column {occurrence} has "
                f"more than {self.chain_length} terms",
            )
            return
        coeff, expected = self._expected_operand(slot, occurrence, line)
        if op.coeff != coeff:
            self.report(
                "RS406",
                f"{where}, cycle {index}: term {slot} of column {occurrence} "
                f"streams coefficient {op.coeff.describe()}, expected "
                f"{coeff.describe()}",
            )
        entry = self.regs.get(op.data_reg)
        if entry is None:
            self.report(
                "RS401",
                f"{where}, cycle {index}: multiply-add reads r{op.data_reg} "
                "before any load defines it",
            )
        else:
            value, ready = entry
            if ready > cycle:
                self.report(
                    "RS401",
                    f"{where}, cycle {index}: multiply-add reads "
                    f"r{op.data_reg} {ready - cycle} cycle(s) before its "
                    "load lands",
                )
            elif value != expected:
                self.report(
                    "RS406",
                    f"{where}, cycle {index}: term {slot} of column "
                    f"{occurrence} reads {_describe_value(value)} from "
                    f"r{op.data_reg}, expected {_describe_value(expected)}",
                )
        closing = slot == self.chain_length - 1
        if op.last != closing:
            self.report(
                "RS406",
                f"{where}, cycle {index}: term {slot} of column {occurrence} "
                + ("carries a premature last-flag" if op.last
                   else "is the final term but lacks the last-flag"),
            )
        if op.last:
            chains[op.thread] = None
            if op.dest_reg in self.reserved:
                self.report(
                    "RS402",
                    f"{where}, cycle {index}: writeback targets reserved "
                    f"register r{op.dest_reg}",
                )
                return
            self.regs[op.dest_reg] = (
                ("acc", line, occurrence),
                cycle + self.params.writeback_latency,
            )

    def _run_store(
        self,
        op: StoreOp,
        line: int,
        cycle: int,
        index: int,
        where: str,
        stored: Dict[int, int],
    ) -> None:
        stored[op.result_col] = stored.get(op.result_col, 0) + 1
        entry = self.regs.get(op.reg)
        if entry is None:
            self.report(
                "RS401",
                f"{where}, cycle {index}: store reads undefined r{op.reg}",
            )
            return
        value, ready = entry
        if ready > cycle:
            self.report(
                "RS403",
                f"{where}, cycle {index}: store of result column "
                f"{op.result_col} issues {ready - cycle} cycle(s) before "
                "its chain's writeback lands",
            )
        elif value != ("acc", line, op.result_col):
            self.report(
                "RS404",
                f"{where}, cycle {index}: store of result column "
                f"{op.result_col} reads {_describe_value(value)} from "
                f"r{op.reg}, not that column's accumulation",
            )

    # ------------------------------------------------------------------

    def _check_line_shape(
        self,
        line: int,
        ops: Sequence[AbstractOp],
        where: str,
        chains: Dict[int, Optional[dict]],
        stored: Dict[int, int],
        counts: Dict[str, int],
        last_ma_index: Optional[int],
        first_store_index: Optional[int],
    ) -> None:
        width = self.plan.width
        for state in chains.values():
            if state is not None:
                self.report(
                    "RS406",
                    f"{where}: chain for result column {state['occ']} is "
                    "never closed",
                )
        missing = [col for col in range(width) if stored.get(col, 0) == 0]
        doubled = [col for col, n in stored.items() if n > 1]
        bogus = [col for col in stored if not 0 <= col < width]
        if missing:
            self.report(
                "RS404",
                f"{where}: result columns {missing} are never stored "
                f"({len(stored)} of {width} stores present)",
            )
        if doubled or bogus:
            self.report(
                "RS404",
                f"{where}: store set malformed (doubled {doubled}, "
                f"out-of-range {bogus})",
            )
        if last_ma_index is not None and first_store_index is not None:
            gap = first_store_index - last_ma_index - 1
            if gap < self.params.pipe_reversal_penalty:
                self.report(
                    "RS403",
                    f"{where}: only {gap} cycle(s) between the multiply-add "
                    "block and the first store; the memory pipe needs "
                    f"{self.params.pipe_reversal_penalty} to reverse",
                )

    def check_metadata(self, pattern, where: str) -> None:
        """Compare a line pattern's metadata fields against its op stream."""
        loads = sum(1 for op in pattern.ops if isinstance(op, LoadOp))
        stores = sum(1 for op in pattern.ops if isinstance(op, StoreOp))
        ma_indices = [
            i for i, op in enumerate(pattern.ops) if isinstance(op, MAOp)
        ]
        # num_ma is the MA *block* length: for odd widths the solo chain
        # interleaves dummy cycles, so the block spans first..last MAOp.
        ma_block = ma_indices[-1] - ma_indices[0] + 1 if ma_indices else 0
        if (loads, ma_block, stores) != (
            pattern.num_loads, pattern.num_ma, pattern.num_stores
        ):
            self.report(
                "RS405",
                f"{where}: op stream has {loads} loads / a multiply-add "
                f"block of {ma_block} cycles / {stores} stores but the "
                f"metadata claims {pattern.num_loads} / {pattern.num_ma} / "
                f"{pattern.num_stores}",
            )
        if stores != self.plan.width:
            self.report(
                "RS404",
                f"{where}: {stores} stores for width {self.plan.width}",
            )
        last_ma = ma_indices[-1] if ma_indices else None
        first_store = next(
            (i for i, op in enumerate(pattern.ops) if isinstance(op, StoreOp)),
            None,
        )
        if last_ma is not None and first_store is not None:
            gap = first_store - last_ma - 1
            if gap != pattern.drain_gap:
                self.report(
                    "RS405",
                    f"{where}: {gap} drain cycle(s) in the op stream but "
                    f"the metadata claims {pattern.drain_gap}",
                )


def analyze_dataflow(
    plan: WidthPlan, params: Optional[MachineParams] = None
) -> List[Diagnostic]:
    """Statically verify one width plan's op streams against the plan's
    own pattern, its fused extra terms included."""
    params = params or MachineParams()
    sim = _Simulator(plan, params)
    prefix = f"width {plan.width}"

    # Structural/metadata invariants the closed-form cost model rests on.
    period = len(plan.steady)
    if period < 1 or plan.unroll < 1 or period != plan.unroll:
        sim.report(
            "RS405",
            f"{prefix}: {period} steady phases for unroll factor "
            f"{plan.unroll}",
        )
    if not plan.prologue.full_load:
        sim.report("RS405", f"{prefix}: prologue is not a full load")
    steady_cycles = plan.steady[0].cycles if period else 0
    for phase, line_pattern in enumerate(plan.steady):
        where = f"{prefix} steady phase {phase}"
        if line_pattern.full_load:
            sim.report("RS405", f"{where}: marked as a full load")
        if line_pattern.phase != phase:
            sim.report(
                "RS405",
                f"{where}: pattern records phase {line_pattern.phase}",
            )
        if line_pattern.cycles != steady_cycles:
            sim.report(
                "RS405",
                f"{where}: {line_pattern.cycles} cycles; phase 0 has "
                f"{steady_cycles} -- the closed-form model assumes uniform "
                "steady lines",
            )
    sim.check_metadata(plan.prologue, f"{prefix} prologue")
    for phase, line_pattern in enumerate(plan.steady):
        sim.check_metadata(line_pattern, f"{prefix} steady phase {phase}")

    # Closed-form cycle model vs. the actual op streams.
    if period:
        max_span = max(
            column_span(ring.column) for ring in plan.allocation.rings
        )
        lines = max(plan.unroll, period) + max_span + 1
        actual = (
            params.half_strip_dispatch_cycles
            + plan.prologue.cycles
            + sum(plan.steady[n % period].cycles for n in range(1, lines))
            + lines * params.sequencer_line_overhead
        )
        claimed = plan.half_strip_cycles(lines, params)
        if claimed != actual:
            sim.report(
                "RS405",
                f"{prefix}: closed-form model prices {lines} lines at "
                f"{claimed} cycles; the op streams sum to {actual}",
            )

        # Symbolic execution of prologue + full LCM period (plus enough
        # extra lines that every prologue-loaded element retires).
        sim.run_line(0, plan.prologue.ops, f"{prefix} prologue")
        for line in range(1, lines):
            sim.run_line(
                line,
                plan.steady[line % period].ops,
                f"{prefix} line {line} (phase {line % period})",
            )

    return sim.diagnostics


def check_register_usage(plan: WidthPlan) -> List[Diagnostic]:
    """``RS502``: ring registers never referenced by any op stream.

    Over one full LCM period every ring slot is loaded and read; a ring
    register absent from prologue *and* every steady phase is allocated
    but dead -- a symptom of a ring sized or rotated wrongly.
    """
    referenced: Set[int] = set()
    patterns = (plan.prologue,) + tuple(plan.steady)
    for line_pattern in patterns:
        for op in line_pattern.ops:
            if isinstance(op, LoadOp):
                referenced.add(op.reg)
            elif isinstance(op, MAOp):
                referenced.add(op.data_reg)
                referenced.add(op.dest_reg)
            elif isinstance(op, StoreOp):
                referenced.add(op.reg)
    diagnostics: List[Diagnostic] = []
    for ring in plan.allocation.rings:
        unused = [reg for reg in ring.registers if reg not in referenced]
        if unused:
            diagnostics.append(
                plan_error(
                    "RS502",
                    f"width {plan.width}: ring for column {ring.column.x} "
                    f"holds register(s) {unused} never touched by any "
                    "line pattern",
                )
            )
    return diagnostics
