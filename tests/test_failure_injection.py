"""Failure injection: corrupted schedules must fail loudly.

The cycle-stepped FPU validates the pipeline protocol, so a buggy
register allocator or code generator produces a ScheduleError, never
quietly wrong numbers.  These tests corrupt correct plans in the ways a
real compiler bug would and check each corruption is caught.
"""

import dataclasses

import numpy as np
import pytest

from repro.compiler.plan import compile_pattern
from repro.machine.fpu import ScheduleError, Wtl3164
from repro.machine.isa import Instr, LoadOp, MAOp, NopOp, StoreOp
from repro.machine.memory import NodeMemory
from repro.machine.params import MachineParams
from repro.machine.sequencer import HalfStripJob, Sequencer
from repro.stencil.gallery import cross5


@pytest.fixture
def params():
    return MachineParams(num_nodes=1)


@pytest.fixture(params=[(), (3, 2, 2)], ids=["one-node", "lanes-3x2x2"])
def memory(request):
    """One node's memory of 2-D buffers, or a lane memory of 3 batch
    entries on 2x2 nodes whose coefficient stacks span the node grid
    and broadcast across the entries, as in an exact pass."""
    lanes = request.param
    mem = NodeMemory()
    rng = np.random.default_rng(0)
    mem.hold(
        "X__halo__", rng.standard_normal(lanes + (10, 18)).astype(np.float32)
    )
    mem.hold("R", np.zeros(lanes + (8, 16), dtype=np.float32))
    for name in ("C1", "C2", "C3", "C4", "C5"):
        mem.hold(
            name, rng.standard_normal(lanes[1:] + (8, 16)).astype(np.float32)
        )
    return mem


def run_plan(plan, params, memory, mutate=None):
    """Run one half-strip of a (possibly mutated) plan."""
    if mutate is not None:
        plan = mutate(plan)
    sequencer = Sequencer(
        params, memory, source_buffer="X__halo__", result_buffer="R", halo=1
    )
    fpu = Wtl3164(params, memory)
    sequencer.run_half_strip(plan, HalfStripJob(x0=0, y_start=7, lines=4), fpu)
    fpu.drain()
    return fpu


def replace_steady_ops(plan, new_ops):
    """A copy of the plan whose steady line patterns carry new_ops."""
    steady = tuple(
        dataclasses.replace(line, ops=tuple(new_ops(line.ops)))
        for line in plan.steady
    )
    return dataclasses.replace(plan, steady=steady)


class TestInjectedCorruptions:
    def test_baseline_plan_runs_clean(self, params, memory):
        compiled = compile_pattern(cross5(), params)
        fpu = run_plan(compiled.plans[8], params, memory)
        assert fpu.stats.ma_issues > 0

    def test_dropping_drain_nops_breaks_store_timing(self, params, memory):
        """Removing the drain gap makes a store precede its writeback
        (or reverse the memory pipe too fast)."""
        compiled = compile_pattern(cross5(), params)

        def strip_drain(ops):
            return [
                op
                for op in ops
                if not (isinstance(op, NopOp) and op.reason == "drain")
            ]

        with pytest.raises(ScheduleError):
            run_plan(
                compiled.plans[8],
                params,
                memory,
                mutate=lambda plan: replace_steady_ops(plan, strip_drain),
            )

    def test_swapped_load_registers_caught_by_oracle(self, params, memory):
        """A register-allocation bug (two load targets swapped) violates
        no pipeline protocol -- it silently computes the wrong answer,
        which is exactly what the bit-exact end-to-end comparison against
        the unmutated plan exists to catch."""
        compiled = compile_pattern(cross5(), params)
        good = run_plan(compiled.plans[8], params, memory)
        good_result = memory.buffer("R").copy()
        memory.buffer("R")[:] = 0.0

        def swap_two_loads(ops):
            loads = [i for i, op in enumerate(ops) if isinstance(op, LoadOp)]
            a, b = loads[1], loads[2]
            out = list(ops)
            out[a] = dataclasses.replace(out[a], reg=ops[b].reg)
            out[b] = dataclasses.replace(out[b], reg=ops[a].reg)
            return out

        def mutate(plan):
            prologue = dataclasses.replace(
                plan.prologue, ops=tuple(swap_two_loads(plan.prologue.ops))
            )
            return dataclasses.replace(plan, prologue=prologue)

        run_plan(compiled.plans[8], params, memory, mutate=mutate)
        bad_result = memory.buffer("R")
        assert not np.array_equal(bad_result, good_result)

    def test_writing_the_zero_register_is_caught(self, params, memory):
        compiled = compile_pattern(cross5(), params)

        def clobber_dest(ops):
            out = []
            for op in ops:
                if isinstance(op, MAOp):
                    op = dataclasses.replace(op, dest_reg=0)
                out.append(op)
            return out

        with pytest.raises(ScheduleError, match="reserved"):
            run_plan(
                compiled.plans[8],
                params,
                memory,
                mutate=lambda plan: replace_steady_ops(plan, clobber_dest),
            )

    def test_out_of_range_register_is_caught(self, params, memory):
        compiled = compile_pattern(cross5(), params)

        def wild_register(ops):
            out = []
            for op in ops:
                if isinstance(op, LoadOp):
                    op = dataclasses.replace(op, reg=40)
                out.append(op)
            return out

        def mutate(plan):
            prologue = dataclasses.replace(
                plan.prologue, ops=tuple(wild_register(plan.prologue.ops))
            )
            return dataclasses.replace(plan, prologue=prologue)

        with pytest.raises(ScheduleError, match="register file"):
            run_plan(compiled.plans[8], params, memory, mutate=mutate)

    def test_breaking_chain_protocol_is_caught(self, params, memory):
        """Marking every multiply-add first-and-last double-opens chains
        on the same thread within a pair."""
        compiled = compile_pattern(cross5(), params)

        def always_first(ops):
            out = []
            for op in ops:
                if isinstance(op, MAOp):
                    op = dataclasses.replace(op, first=True, last=False)
                out.append(op)
            return out

        with pytest.raises(ScheduleError):
            run_plan(
                compiled.plans[8],
                params,
                memory,
                mutate=lambda plan: replace_steady_ops(plan, always_first),
            )

    def test_out_of_bounds_address_is_caught(self, params, memory):
        """A wrong halo width makes the sequencer address off-buffer."""
        from repro.machine.memory import MemoryError_

        compiled = compile_pattern(cross5(), params)
        sequencer = Sequencer(
            params,
            memory,
            source_buffer="X__halo__",
            result_buffer="R",
            halo=0,  # wrong: the pattern needs halo 1
        )
        fpu = Wtl3164(params, memory)
        with pytest.raises(MemoryError_):
            sequencer.run_half_strip(
                compiled.plans[8],
                HalfStripJob(x0=0, y_start=7, lines=8),
                fpu,
            )
