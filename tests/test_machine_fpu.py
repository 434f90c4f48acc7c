"""Tests for the WTL3164 pipeline model: timing, chaining, validation."""

import numpy as np
import pytest

from repro.machine.fpu import ScheduleError, Wtl3164
from repro.machine.isa import Instr, LoadOp, MAOp, MemRef, NopOp, StoreOp
from repro.machine.memory import NodeMemory
from repro.machine.params import MachineParams
from repro.stencil.pattern import Coefficient


@pytest.fixture
def memory():
    mem = NodeMemory()
    mem.install("data", np.arange(16, dtype=np.float32).reshape(4, 4))
    mem.install("coeff", np.full((4, 4), 2.0, dtype=np.float32))
    mem.allocate("out", (4, 4))
    return mem


@pytest.fixture
def params():
    return MachineParams(num_nodes=1)


def make_fpu(params, memory, unit_reg=None):
    return Wtl3164(params, memory, zero_reg=0, unit_reg=unit_reg)


def load(reg, row, col, buffer="data"):
    return Instr(LoadOp(reg=reg, row=row, col=col), MemRef(buffer, row, col))


def ma(data_reg, dest, *, thread=0, first=True, last=True, row=0, col=0):
    return Instr(
        MAOp(
            coeff=Coefficient.array("coeff"),
            data_reg=data_reg,
            dest_reg=dest,
            thread=thread,
            first=first,
            last=last,
            result_col=col,
        ),
        MemRef("coeff", row, col),
    )


def store(reg, row, col):
    return Instr(StoreOp(reg=reg, result_col=col), MemRef("out", row, col))


def nop(n=1):
    return [Instr(NopOp("test"), None)] * n


class TestBasicDataflow:
    def test_load_compute_store(self, params, memory):
        """coeff[0,1] * data[0,1] = 2 * 1 = 2."""
        fpu = make_fpu(params, memory)
        fpu.run([load(2, 0, 1)])
        fpu.stall(2)  # load latency
        fpu.run([ma(2, 2, row=0, col=1)])
        fpu.stall(6)  # writeback + reversal gap
        fpu.run([store(2, 0, 1)])
        fpu.drain()
        assert memory.buffer("out")[0, 1] == np.float32(2.0)

    def test_load_latency_respected(self, params, memory):
        """A register read before its load lands sees the old value."""
        fpu = make_fpu(params, memory)
        fpu.run([load(2, 0, 1)])
        # Value lands at cycle 0 + 2; a read at cycle 1 is uninitialized.
        with pytest.raises(ScheduleError, match="uninitialized"):
            fpu.run([ma(2, 2)])

    def test_chained_accumulation(self, params, memory):
        """Three chained multiply-adds accumulate 2*(d0 + d1 + d2)."""
        fpu = make_fpu(params, memory)
        fpu.run([load(2, 1, 0), load(3, 1, 1), load(4, 1, 2)])
        fpu.stall(2)
        # One thread issues every other cycle: interleave with nops.
        fpu.step(ma(2, 4, first=True, last=False, row=1, col=0))
        fpu.step(Instr(NopOp("interleave"), None))
        fpu.step(ma(3, 4, first=False, last=False, row=1, col=1))
        fpu.step(Instr(NopOp("interleave"), None))
        fpu.step(ma(4, 4, first=False, last=True, row=1, col=2))
        fpu.stall(6)
        fpu.run([store(4, 1, 0)])
        fpu.drain()
        expected = np.float32(2.0 * (4 + 5 + 6))
        assert memory.buffer("out")[1, 0] == expected

    def test_two_interleaved_threads(self, params, memory):
        fpu = make_fpu(params, memory)
        fpu.run([load(2, 0, 0), load(3, 0, 1)])
        fpu.stall(2)
        fpu.step(ma(2, 2, thread=0, row=0, col=0))
        fpu.step(ma(3, 3, thread=1, row=0, col=1))
        fpu.stall(6)
        fpu.run([store(2, 0, 0), nop(1)[0], store(3, 0, 1)])
        fpu.drain()
        assert memory.buffer("out")[0, 0] == np.float32(0.0)  # 2 * 0
        assert memory.buffer("out")[0, 1] == np.float32(2.0)  # 2 * 1

    def test_writeback_at_issue_plus_four(self, params, memory):
        """The destination register still holds its old value until
        exactly issue + 4 -- the 'just barely' reuse window."""
        fpu = make_fpu(params, memory)
        fpu.run([load(2, 0, 1), load(3, 0, 2)])
        fpu.stall(2)
        fpu.step(ma(2, 3, row=0, col=1))  # issued cycle 4, lands cycle 8
        # Cycles 5..7: register 3 still holds data[0,2] = 2.0.
        assert fpu.regs[3] == np.float32(2.0)
        fpu.stall(3)  # cycles 5, 6, 7
        assert fpu.regs[3] == np.float32(2.0)
        fpu.stall(1)  # cycle 8: writeback applied at start
        assert fpu.regs[3] == np.float32(2.0 * 1.0)


class TestRegisterFile:
    def test_reserved_registers_start_valid(self, params, memory):
        fpu = Wtl3164(params, memory, zero_reg=0, unit_reg=1)
        assert fpu.regs[1] == np.float32(1.0)
        assert fpu.valid[0] and fpu.valid[1]
        assert not fpu.valid[2]


class TestValidation:
    def test_store_before_writeback_rejected(self, params, memory):
        fpu = make_fpu(params, memory)
        fpu.run([load(2, 0, 1)])
        fpu.stall(2)
        fpu.step(ma(2, 2))
        fpu.stall(2)  # not enough: writeback lands at +4
        with pytest.raises(ScheduleError, match="writeback"):
            fpu.step(store(2, 0, 0))

    def test_pipe_reversal_needs_gap(self, params, memory):
        fpu = make_fpu(params, memory)
        fpu.run([load(2, 0, 1)])
        fpu.stall(1)  # one intervening cycle < the 2-cycle penalty
        with pytest.raises(ScheduleError, match="reversed"):
            fpu.step(store(0, 0, 0))  # zero reg is valid; read-to-write flip

    def test_pipe_reversal_with_gap_allowed(self, params, memory):
        fpu = make_fpu(params, memory)
        fpu.run([load(2, 0, 1)])
        fpu.stall(4)
        fpu.stall(params.pipe_reversal_penalty)
        fpu.step(store(0, 0, 0))  # stores 0.0; legal

    def test_write_to_zero_register_rejected(self, params, memory):
        fpu = make_fpu(params, memory)
        with pytest.raises(ScheduleError, match="reserved"):
            fpu.step(ma(0, 0))

    def test_write_to_unit_register_rejected(self, params, memory):
        fpu = make_fpu(params, memory, unit_reg=1)
        with pytest.raises(ScheduleError, match="reserved"):
            fpu.step(ma(1, 1))

    def test_load_into_reserved_register_rejected(self, params, memory):
        fpu = make_fpu(params, memory)
        with pytest.raises(ScheduleError, match="reserved"):
            fpu.step(load(0, 0, 0))

    def test_uninitialized_read_rejected(self, params, memory):
        fpu = make_fpu(params, memory)
        with pytest.raises(ScheduleError, match="uninitialized"):
            fpu.step(ma(5, 5))

    def test_register_out_of_range(self, params, memory):
        fpu = make_fpu(params, memory)
        with pytest.raises(ScheduleError, match="register file"):
            fpu.step(load(99, 0, 0))

    def test_chain_protocol_new_chain_while_open(self, params, memory):
        fpu = make_fpu(params, memory)
        fpu.run([load(2, 0, 1)])
        fpu.stall(2)
        fpu.step(ma(2, 2, first=True, last=False))
        fpu.step(Instr(NopOp("x"), None))
        with pytest.raises(ScheduleError, match="open"):
            fpu.step(ma(2, 2, first=True, last=True))

    def test_unclosed_chain_detected_at_drain(self, params, memory):
        fpu = make_fpu(params, memory)
        fpu.run([load(2, 0, 1)])
        fpu.stall(2)
        fpu.step(ma(2, 2, first=True, last=False))
        with pytest.raises(ScheduleError, match="unclosed"):
            fpu.drain()


class TestRounding:
    def test_chained_ma_rounds_after_multiply(self, params, memory):
        """The WTL3164 is chained, not fused: the product rounds to
        float32 before the add."""
        mem = NodeMemory()
        # Pick values where fused and chained differ.
        a = np.float32(1.0000001)
        mem.install("data", np.array([[a]], dtype=np.float32))
        mem.install("coeff", np.array([[a]], dtype=np.float32))
        mem.allocate("out", (1, 1))
        fpu = make_fpu(params, mem)
        fpu.run([load(2, 0, 0)])
        fpu.stall(2)
        fpu.step(ma(2, 2, row=0, col=0))
        fpu.stall(6)
        fpu.run([store(2, 0, 0)])
        fpu.drain()
        chained = np.float32(np.float32(a * a) + np.float32(0.0))
        assert mem.buffer("out")[0, 0] == chained


class TestStats:
    def test_cycle_accounting(self, params, memory):
        fpu = make_fpu(params, memory)
        fpu.run([load(2, 0, 1)])
        fpu.stall(2, "fill")
        fpu.step(ma(2, 2))
        fpu.stall(6, "drain")
        fpu.step(store(2, 0, 0))
        assert fpu.stats.cycles == 11
        assert fpu.stats.loads == 1
        assert fpu.stats.ma_issues == 1
        assert fpu.stats.stores == 1
        assert fpu.stats.stalls == 8
        assert fpu.stats.stall_reasons["fill"] == 2

    def test_drain_counts_cycles(self, params, memory):
        fpu = make_fpu(params, memory)
        fpu.run([load(2, 0, 1)])
        drained = fpu.drain()
        assert drained == 2  # load latency outstanding


class TestSpecialValues:
    def test_infinity_propagates(self, params):
        mem = NodeMemory()
        mem.install("data", np.array([[np.inf]], dtype=np.float32))
        mem.install("coeff", np.array([[2.0]], dtype=np.float32))
        mem.allocate("out", (1, 1))
        fpu = make_fpu(params, mem)
        fpu.run([load(2, 0, 0)])
        fpu.stall(2)
        fpu.step(ma(2, 2, row=0, col=0))
        fpu.stall(6)
        fpu.run([store(2, 0, 0)])
        fpu.drain()
        assert np.isinf(mem.buffer("out")[0, 0])

    def test_nan_propagates(self, params):
        mem = NodeMemory()
        mem.install("data", np.array([[np.nan]], dtype=np.float32))
        mem.install("coeff", np.array([[1.0]], dtype=np.float32))
        mem.allocate("out", (1, 1))
        fpu = make_fpu(params, mem)
        fpu.run([load(2, 0, 0)])
        fpu.stall(2)
        fpu.step(ma(2, 2, row=0, col=0))
        fpu.stall(6)
        fpu.run([store(2, 0, 0)])
        fpu.drain()
        assert np.isnan(mem.buffer("out")[0, 0])

    def test_overflow_rounds_to_infinity(self, params):
        """float32 arithmetic throughout: 1e30 * 1e30 overflows."""
        mem = NodeMemory()
        mem.install("data", np.array([[1e30]], dtype=np.float32))
        mem.install("coeff", np.array([[1e30]], dtype=np.float32))
        mem.allocate("out", (1, 1))
        fpu = make_fpu(params, mem)
        with np.errstate(over="ignore"):
            fpu.run([load(2, 0, 0)])
            fpu.stall(2)
            fpu.step(ma(2, 2, row=0, col=0))
            fpu.stall(6)
            fpu.run([store(2, 0, 0)])
            fpu.drain()
        assert np.isinf(mem.buffer("out")[0, 0])


def chain_of_two(fpu):
    """out[1, 0] = coeff[1, 0] * data[1, 0] + coeff[1, 1] * data[1, 1]."""
    fpu.run([load(2, 1, 0), load(3, 1, 1)])
    fpu.stall(2)
    fpu.step(ma(2, 4, first=True, last=False, row=1, col=0))
    fpu.step(Instr(NopOp("interleave"), None))
    fpu.step(ma(3, 4, first=False, last=True, row=1, col=1))
    fpu.stall(6)
    fpu.run([store(4, 1, 0)])
    fpu.drain()


class TestLanes:
    """A memory holding whole-machine stacks makes every register a
    float32 vector, one lane per leading index; control is shared."""

    def test_every_lane_matches_its_one_node_run(self, params):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((3, 2, 4, 4)).astype(np.float32)
        # One coefficient stack per node, broadcast across the entries.
        coeff = rng.standard_normal((2, 4, 4)).astype(np.float32)
        lanes = NodeMemory()
        lanes.hold("data", data)
        lanes.hold("coeff", coeff)
        lanes.hold("out", np.zeros_like(data))
        wide = make_fpu(params, lanes)
        chain_of_two(wide)
        for index in np.ndindex(*data.shape[:-2]):
            one = NodeMemory()
            one.install("data", data[index])
            one.install("coeff", coeff[index[1:]])
            one.allocate("out", (4, 4))
            narrow = make_fpu(params, one)
            chain_of_two(narrow)
            assert narrow.stats == wide.stats
            np.testing.assert_array_equal(
                lanes.buffer("out")[index], one.buffer("out")
            )

    def test_a_load_takes_its_value_when_it_issues(self, params):
        data = np.ones((2, 4, 4), dtype=np.float32)
        mem = NodeMemory()
        mem.hold("data", data)
        fpu = make_fpu(params, mem)
        fpu.run([load(2, 0, 1)])
        data[:, 0, 1] = 5.0  # a store after the load issued, before it lands
        fpu.stall(2)
        np.testing.assert_array_equal(fpu.regs[2], np.ones(2, np.float32))
