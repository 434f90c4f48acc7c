"""The cache-blocked tap kernel shared by every fast tap loop.

``tap_kernel`` applies a chain of multiply-adds one block at a time and
shares the blocks among threads.  These tests force the awkward cases --
one node row per block, a ragged last block, one thread and three --
and require results bit-identical (compared as uint32, so NaN payloads
count) to a plain whole-array loop over the same chain.
"""

import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from repro.baseline.reference import reference_stencil
from repro.compiler.codegen import ExtraTerm
from repro.compiler.driver import compile_stencil
from repro.compiler.fusion import fuse
from repro.machine.machine import CM2
from repro.machine.params import MachineParams
from repro.runtime import executor
from repro.runtime.cm_array import CMArray
from repro.runtime.executor import tap_kernel, tap_steps
from repro.runtime.faults import ResiliencePolicy
from repro.runtime.stencil_op import apply_stencil
from repro.stencil.gallery import cross5, square9
from repro.stencil.pattern import Coefficient, StencilPattern, Tap

GRID = (5, 3)
SUBGRID = (4, 6)
PAD = 2


def every_kind_pattern():
    """Array, scalar and unit taps plus array and scalar constant terms."""
    return StencilPattern(
        [
            Tap(offset=(-1, 0), coeff=Coefficient.array("C1")),
            Tap(offset=(0, 2), coeff=Coefficient.scalar(0.375)),
            Tap(offset=(2, -1), coeff=Coefficient.unit()),
            Tap(
                offset=(0, 0),
                coeff=Coefficient.array("C2"),
                is_constant_term=True,
            ),
            Tap(offset=(-2, -2), coeff=Coefficient.array("C1")),
            Tap(
                offset=(0, 0),
                coeff=Coefficient.scalar(-1.25),
                is_constant_term=True,
            ),
        ],
        name="every_kind",
    )


def fused_pattern():
    return StencilPattern(
        every_kind_pattern().taps,
        name="every_kind",
        extra_terms=[
            ExtraTerm(source="PREV", coeff=Coefficient.array("CT")),
            ExtraTerm(source="PREV", coeff=Coefficient.scalar(0.5)),
            ExtraTerm(source="Y", coeff=Coefficient.unit()),
        ],
    )


def random_stack(rng, shape):
    data = rng.uniform(-2.0, 2.0, shape).astype(np.float32)
    # Overflow to inf and inf - inf = NaN: the chain must saturate the
    # same way in every block, NaN payloads included.
    data.flat[::97] = np.float32(3e38)
    data.flat[5::89] = np.float32(-3e38)
    return data


def unblocked(steps, shape):
    """The chain as one whole-array multiply and add per step."""
    acc = np.zeros(shape, dtype=np.float32)
    prod = np.empty(shape, dtype=np.float32)
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in steps:
            np.multiply(a, b, out=prod)
            np.add(acc, prod, out=acc)
    return acc


def assert_bits_equal(got, want):
    np.testing.assert_array_equal(
        np.ascontiguousarray(got).view(np.uint32),
        np.ascontiguousarray(want).view(np.uint32),
    )


@pytest.fixture
def kernel(monkeypatch, request):
    """Blocks of ``rows`` node rows shared by ``workers`` threads, on a
    pool of this test's own."""
    rows, workers = request.param
    monkeypatch.setattr(
        executor, "BLOCK_ELEMENTS", rows * SUBGRID[0] * SUBGRID[1] * GRID[1]
    )
    monkeypatch.setattr(executor, "WORKERS", workers)
    monkeypatch.setattr(executor, "_TAP_POOL", None)
    yield request.param
    if executor._TAP_POOL is not None:
        executor._TAP_POOL.shutdown()


# (node rows per block, workers): one-row blocks, and two-row blocks
# whose last block is ragged (5 node rows), each on 1 and 3 threads.
CONFIGS = [(1, 1), (1, 3), (2, 1), (2, 3)]


def problem(pattern, lead, grid=GRID, seed=0):
    rng = np.random.default_rng(seed)
    rows, cols = SUBGRID
    padded = random_stack(
        rng, lead + grid + (rows + 2 * PAD, cols + 2 * PAD)
    )
    arrays = {
        name: random_stack(rng, grid + SUBGRID)
        for name in ("C1", "C2", "CT")
    }
    for name in ("PREV", "Y"):
        arrays[name] = random_stack(rng, lead + grid + SUBGRID)
    return padded, arrays


@pytest.mark.parametrize("kernel", CONFIGS, indirect=True)
class TestKernelMatchesUnblockedLoop:
    @pytest.mark.parametrize("lead", [(), (3,), (3, 2)])
    def test_every_coefficient_kind(self, kernel, lead):
        pattern = every_kind_pattern()
        padded, arrays = problem(pattern, lead)
        steps = tap_steps(pattern, padded, PAD, SUBGRID, arrays)
        out = np.full(lead + GRID + SUBGRID, np.nan, dtype=np.float32)
        tap_kernel(steps, out)
        assert_bits_equal(out, unblocked(steps, out.shape))

    @pytest.mark.parametrize("lead", [(), (3,), (3, 2)])
    def test_fused_extra_terms(self, kernel, lead):
        pattern = fused_pattern()
        padded, arrays = problem(pattern, lead, seed=1)
        steps = tap_steps(pattern, padded, PAD, SUBGRID, arrays)
        out = np.empty(lead + GRID + SUBGRID, dtype=np.float32)
        tap_kernel(steps, out)
        assert_bits_equal(out, unblocked(steps, out.shape))

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_in_place_extra_term(self, kernel, lead):
        """The RS603 idiom: the output is also an extra-term source, so
        every block must read its rows of it before writing them."""
        pattern = fused_pattern()
        padded, arrays = problem(pattern, lead, seed=2)
        want = unblocked(
            tap_steps(pattern, padded, PAD, SUBGRID, arrays),
            arrays["PREV"].shape,
        )
        out = arrays["PREV"]
        tap_kernel(tap_steps(pattern, padded, PAD, SUBGRID, arrays), out)
        assert_bits_equal(out, want)

    @pytest.mark.parametrize("grid", [(1, 8), (8, 1)])
    def test_degenerate_node_grids(self, kernel, grid):
        pattern = fused_pattern()
        padded, arrays = problem(pattern, (3,), grid=grid, seed=3)
        steps = tap_steps(pattern, padded, PAD, SUBGRID, arrays)
        out = np.empty((3,) + grid + SUBGRID, dtype=np.float32)
        tap_kernel(steps, out)
        assert_bits_equal(out, unblocked(steps, out.shape))


def scatter(machine, name, data):
    return CMArray.from_numpy(name, machine, data)


@pytest.mark.parametrize("kernel", [(1, 1), (1, 3)], indirect=True)
class TestRunsThroughTheKernel:
    """Whole runs under forced one-row blocks against the numpy
    reference: solo, fused in place, degenerate grids, and a depth-3
    temporally blocked run.  Only the guarded loop and fused calls run
    the tap kernel (an unguarded run takes the band schedule), so the
    other runs are guarded, with no faults."""

    @pytest.mark.parametrize("shape", [(1, 16), (16, 1), (4, 4)])
    def test_solo_runs(self, kernel, shape):
        machine = CM2(MachineParams(num_nodes=16), shape=shape)
        pattern = square9()
        compiled = compile_stencil(pattern, machine.params)
        rng = np.random.default_rng(4)
        x = rng.standard_normal((32, 48)).astype(np.float32)
        coeffs = {
            name: rng.standard_normal(x.shape).astype(np.float32)
            for name in pattern.coefficient_names()
        }
        run = apply_stencil(
            compiled,
            scatter(machine, "X", x),
            {n: scatter(machine, n, c) for n, c in coeffs.items()},
            "R",
            iterations=3,
            resilience=ResiliencePolicy(),
        )
        want = x
        for _ in range(3):
            want = reference_stencil(pattern, want, coeffs)
        assert_bits_equal(run.result.to_numpy(), want)

    def test_fused_in_place_run(self, kernel):
        machine = CM2(MachineParams(num_nodes=16))
        base = cross5()
        fused = fuse(
            base,
            [ExtraTerm(source="U", coeff=Coefficient.array("CU"))],
            machine.params,
        )
        rng = np.random.default_rng(5)
        host = {
            name: rng.standard_normal((32, 48)).astype(np.float32)
            for name in ("X", "U", *fused.pattern.coefficient_names())
        }
        arrays = {name: scatter(machine, name, data) for name, data in host.items()}
        coeffs = {n: arrays[n] for n in fused.pattern.coefficient_names()}
        apply_stencil(fused, arrays["X"], coeffs, arrays["U"])
        want = reference_stencil(
            base, host["X"], {n: host[n] for n in base.coefficient_names()}
        )
        want = (want + (host["CU"] * host["U"]).astype(np.float32)).astype(
            np.float32
        )
        assert_bits_equal(arrays["U"].to_numpy(), want)

    @pytest.mark.parametrize("shape", [(1, 16), (16, 1), (4, 4)])
    def test_depth_three_blocked_run(self, kernel, shape):
        machine = CM2(MachineParams(num_nodes=16), shape=shape)
        pattern = cross5()
        compiled = compile_stencil(pattern, machine.params)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((64, 64)).astype(np.float32)
        coeffs = {
            name: rng.uniform(0.0, 0.25, x.shape).astype(np.float32)
            for name in pattern.coefficient_names()
        }
        run = apply_stencil(
            compiled,
            scatter(machine, "X", x),
            {n: scatter(machine, n, c) for n, c in coeffs.items()},
            "R",
            iterations=7,
            block_depth=3,
            resilience=ResiliencePolicy(),
        )
        assert run.block_depths[0] == 3
        want = x
        for _ in range(7):
            want = reference_stencil(pattern, want, coeffs)
        assert_bits_equal(run.result.to_numpy(), want)


    @pytest.mark.parametrize("block_depth", [1, 2])
    def test_batched_runs(self, kernel, block_depth):
        """Leading (batch,) axes through the batched engine, unblocked
        and temporally blocked."""
        from repro.runtime.batch import CMBatch, apply_stencil_batch

        machine = CM2(MachineParams(num_nodes=16))
        patterns = [cross5(), square9()]
        filters = [compile_stencil(p, machine.params) for p in patterns]
        rng = np.random.default_rng(7)
        data = rng.standard_normal((3, 32, 48)).astype(np.float32)
        coeffs = {
            name: rng.uniform(0.0, 0.25, (32, 48)).astype(np.float32)
            for name in sorted(
                {n for p in patterns for n in p.coefficient_names()}
            )
        }
        run = apply_stencil_batch(
            filters,
            CMBatch.from_numpy("XB", machine, data),
            {n: scatter(machine, n, c) for n, c in coeffs.items()},
            iterations=4,
            block_depth=block_depth,
            resilience=ResiliencePolicy(),
        )
        assert tuple(run.block_depths) == (block_depth, block_depth)
        got = run.result.to_numpy()
        for b in range(3):
            for f, pattern in enumerate(patterns):
                want = data[b]
                for _ in range(4):
                    want = reference_stencil(pattern, want, coeffs)
                assert_bits_equal(got[b, f], want)

class TestBlocks:
    @pytest.mark.parametrize(
        "shape, count",
        [
            ((16, 16, 32, 32), 4),  # 4 node rows of 16K words each
            ((8, 16, 16, 16, 16), 8),  # one block per batch entry
            ((8, 4, 4, 8, 8), 1),  # small batch: one block, inline
            ((8, 6, 16, 16, 16, 16), 48),  # (batch, filter) pairs
            ((1, 1024, 32, 32), 1),  # one node row over the budget
        ],
    )
    def test_block_counts(self, shape, count):
        assert len(executor._blocks(shape)) == count

    @pytest.mark.parametrize(
        "shape", [(5, 3, 4, 6), (3, 5, 3, 4, 6), (3, 2, 5, 3, 4, 6)]
    )
    @pytest.mark.parametrize("budget", [1, 2 * 72, 7 * 72, 1 << 16])
    def test_blocks_tile_the_array_once(self, monkeypatch, shape, budget):
        monkeypatch.setattr(executor, "BLOCK_ELEMENTS", budget)
        hits = np.zeros(shape, dtype=np.int64)
        for index in executor._blocks(shape):
            hits[index] += 1
        assert (hits == 1).all()


class TestThreads:
    @pytest.mark.parametrize("kernel", [(1, 3)], indirect=True)
    def test_helper_exception_reaches_the_caller(self, kernel, monkeypatch):
        pattern = every_kind_pattern()
        padded, arrays = problem(pattern, (3,))
        steps = tap_steps(pattern, padded, PAD, SUBGRID, arrays)
        real = executor._slab
        failed = threading.Event()

        def slab(factor, index, ndim):
            if threading.current_thread() is threading.main_thread():
                # Hold the caller back until a helper has failed, so
                # the helpers surely claim blocks of their own.
                failed.wait(timeout=10)
                return real(factor, index, ndim)
            failed.set()
            raise RuntimeError("helper block failed")

        monkeypatch.setattr(executor, "_slab", slab)
        out = np.empty((3,) + GRID + SUBGRID, dtype=np.float32)
        with pytest.raises(RuntimeError, match="helper block failed"):
            tap_kernel(steps, out)
        assert failed.is_set()

    @pytest.mark.parametrize("kernel", [(1, 3)], indirect=True)
    def test_caller_exception_waits_for_helpers(self, kernel, monkeypatch):
        pattern = every_kind_pattern()
        padded, arrays = problem(pattern, (3,))
        steps = tap_steps(pattern, padded, PAD, SUBGRID, arrays)
        real_slab, real_run = executor._slab, executor._run_blocks
        helper_started = threading.Event()
        running = []

        def run_blocks(steps, out, claim):
            running.append(threading.current_thread())
            try:
                real_run(steps, out, claim)
            finally:
                running.remove(threading.current_thread())

        def slab(factor, index, ndim):
            if threading.current_thread() is threading.main_thread():
                helper_started.wait(timeout=10)
                raise RuntimeError("caller block failed")
            helper_started.set()
            time.sleep(0.001)
            return real_slab(factor, index, ndim)

        monkeypatch.setattr(executor, "_run_blocks", run_blocks)
        monkeypatch.setattr(executor, "_slab", slab)
        out = np.empty((3,) + GRID + SUBGRID, dtype=np.float32)
        with pytest.raises(RuntimeError, match="caller block failed"):
            tap_kernel(steps, out)
        # The helpers were still working when the caller failed; the
        # call returned only after they finished.
        assert helper_started.is_set()
        assert running == []

    @pytest.mark.parametrize("kernel", [(1, 3)], indirect=True)
    def test_overflow_is_silent_on_every_thread(self, kernel):
        """The data overflows to inf and NaN; each thread enters its own
        error state, so neither the caller's ``raise`` setting nor
        warnings-as-errors can turn saturation into an exception."""
        pattern = every_kind_pattern()
        padded, arrays = problem(pattern, (3,))
        steps = tap_steps(pattern, padded, PAD, SUBGRID, arrays)
        out = np.empty((3,) + GRID + SUBGRID, dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                tap_kernel(steps, out)
        assert not np.isfinite(out).all()
        assert_bits_equal(out, unblocked(steps, out.shape))

    def test_concurrent_callers_stress(self, monkeypatch):
        """Four callers at once on eight threads (more than this host's
        cores) with a tiny switch interval: every block runs exactly
        once and every result stays bit-identical."""
        monkeypatch.setattr(executor, "BLOCK_ELEMENTS", 1)
        monkeypatch.setattr(executor, "WORKERS", 8)
        monkeypatch.setattr(executor, "_TAP_POOL", None)
        pattern = fused_pattern()
        grid = (16, 2)
        chains = []
        for seed in range(4):
            padded, arrays = problem(pattern, (2,), grid=grid, seed=seed)
            chains.append(tap_steps(pattern, padded, PAD, SUBGRID, arrays))
        outs = [
            np.full((2,) + grid + SUBGRID, np.nan, dtype=np.float32)
            for _ in chains
        ]
        blocks_run = []
        real = executor._block_buffers

        def counted(shape):
            blocks_run.append(1)
            return real(shape)

        monkeypatch.setattr(executor, "_block_buffers", counted)
        errors = []

        def caller(i):
            try:
                for _ in range(5):
                    tap_kernel(chains[i], outs[i])
            except Exception as exc:  # reported below
                errors.append(exc)

        callers = [threading.Thread(target=caller, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            if executor._TAP_POOL is not None:
                executor._TAP_POOL.shutdown()
        assert not any(thread.is_alive() for thread in callers)
        assert errors == []
        # 4 callers x 5 calls x (2 batch entries x 16 node rows).
        assert len(blocks_run) == 4 * 5 * 32
        for chain, out in zip(chains, outs):
            assert_bits_equal(out, unblocked(chain, out.shape))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.parametrize("kernel", [(1, 3)], indirect=True)
    def test_forked_child_starts_a_fresh_pool(self, kernel):
        pattern = every_kind_pattern()
        padded, arrays = problem(pattern, (3,))
        steps = tap_steps(pattern, padded, PAD, SUBGRID, arrays)
        out = np.empty((3,) + GRID + SUBGRID, dtype=np.float32)
        tap_kernel(steps, out)
        parent_pool = executor._TAP_POOL
        assert parent_pool is not None
        pid = os.fork()
        if pid == 0:  # the child reports through its exit status only
            status = 1
            try:
                if executor._TAP_POOL is None:
                    again = np.empty_like(out)
                    tap_kernel(steps, again)
                    fresh = executor._TAP_POOL
                    if fresh is not None and fresh is not parent_pool:
                        status = 0 if np.array_equal(
                            again.view(np.uint32), out.view(np.uint32)
                        ) else 3
                    else:
                        status = 2
            finally:
                os._exit(status)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("forked child hung")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_empty_output_returns(self, monkeypatch):
        monkeypatch.setattr(executor, "WORKERS", 3)
        monkeypatch.setattr(executor, "_TAP_POOL", None)
        tap_kernel([(np.float32(2.0), np.float32(3.0))], np.empty((0, 3, 4, 6)))
        assert executor._TAP_POOL is None

    def test_single_block_call_creates_no_pool(self, monkeypatch):
        monkeypatch.setattr(executor, "WORKERS", 3)
        monkeypatch.setattr(executor, "_TAP_POOL", None)
        pattern = every_kind_pattern()
        padded, arrays = problem(pattern, ())
        steps = tap_steps(pattern, padded, PAD, SUBGRID, arrays)
        out = np.empty(GRID + SUBGRID, dtype=np.float32)
        assert len(executor._blocks(out.shape)) == 1
        tap_kernel(steps, out)
        assert executor._TAP_POOL is None
        assert_bits_equal(out, unblocked(steps, out.shape))
