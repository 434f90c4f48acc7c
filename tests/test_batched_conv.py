"""Batched multi-convolution: bit-identity, amortization, accounting.

The contract under test: ``apply_stencil_batch(filters, sources)[b, f]``
is bit-identical in float32 to ``apply_stencil(filters[f], sources[b])``
for every boundary mode, block depth, node-grid shape, and execution
mode -- while the whole batch shares halo exchanges (one machine pass of
``batch`` messages per boundary group per iteration, instead of
``batch * filters`` solo exchanges).
"""

import os

import numpy as np
import pytest

from repro.analysis.chaos import boundary_variant
from repro.analysis.flops import account_batch
from repro.analysis.timing import batch_report
from repro.compiler.codegen import ExtraTerm
from repro.compiler.driver import compile_stencil
from repro.compiler.fusion import fuse
from repro.machine.machine import CM2
from repro.machine.params import MachineParams
from repro.runtime.batch import CMBatch, apply_stencil_batch
from repro.runtime.blocking import best_block_depth, blocked_costs
from repro.runtime.cm_array import CMArray
from repro.runtime.executor import ExecutionSetupError
from repro.runtime.faults import (
    FaultInjector,
    HardFaultSpec,
    NonFiniteInputError,
    ResiliencePolicy,
)
from repro.runtime.multidim import (
    CMArray3D,
    apply_laplacian27,
    apply_laplacian27_reference,
)
from repro.runtime.stencil_op import apply_stencil
from repro.service import jobs
from repro.service.jobs import JobSpecError, StencilJob, solo_run
from repro.stencil import gallery
from repro.stencil.pattern import Coefficient

GRID = (16, 16)

#: The injector seed of the guarded cases; CI sweeps it.
CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "11"))


def make_machine(shape=(2, 2), spares=0):
    params = MachineParams(num_nodes=shape[0] * shape[1])
    return CM2(params, shape=shape, spares=spares)


def make_batch(machine, batch, grid=GRID, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((batch,) + grid).astype(np.float32)
    return CMBatch.from_numpy("Xb", machine, data), data


def make_coeffs(machine, patterns, grid=GRID, seed=100):
    rng = np.random.default_rng(seed)
    names = sorted(
        {name for p in patterns for name in p.coefficient_names()}
    )
    return {
        name: CMArray.from_numpy(
            name, machine, rng.standard_normal(grid).astype(np.float32)
        )
        for name in names
    }


def solo_results(machine, filters, coeffs, data, grid, **kwargs):
    """The loop of solo runs the batched call must reproduce bit for
    bit."""
    batch = data.shape[0]
    out = np.zeros(
        (batch, len(filters)) + grid, dtype=np.float32
    )
    for b in range(batch):
        src = CMArray.from_numpy(f"__solo_src{b}__", machine, data[b])
        for fi, compiled in enumerate(filters):
            res = CMArray(f"__solo_res{b}_{fi}__", machine, grid)
            apply_stencil(compiled, src, coeffs, res, **kwargs)
            out[b, fi] = res.to_numpy()
    return out


def _fused(params):
    return fuse(
        gallery.cross5(),
        [ExtraTerm(source="U", coeff=Coefficient.array("CU"))],
        params,
    )


#: Mode -> (pattern factory, machine spares, run keyword factory).
ONE_BY_ONE = {
    "fast": (lambda p: compile_stencil(gallery.diamond13(), p), 0,
             lambda: dict(iterations=3)),
    "blocked-2": (lambda p: compile_stencil(gallery.cross5(), p), 0,
                  lambda: dict(iterations=5, block_depth=2)),
    "blocked-auto": (lambda p: compile_stencil(gallery.cross5(), p), 0,
                     lambda: dict(iterations=8, block_depth="auto")),
    "exact": (lambda p: compile_stencil(gallery.square9(), p), 0,
              lambda: dict(iterations=2, exact=True)),
    "fused": (_fused, 0, lambda: dict(iterations=3)),
    "soft-faults": (
        lambda p: compile_stencil(gallery.diamond13(), p), 0,
        lambda: dict(
            iterations=3,
            faults=FaultInjector(
                seed=CHAOS_SEED,
                rates={"node_poison": 0.25, "halo_corrupt": 0.2},
            ),
            resilience=ResiliencePolicy(max_retries=6),
        ),
    ),
    "abft-sdc": (
        lambda p: compile_stencil(gallery.cross5(), p), 0,
        lambda: dict(
            iterations=3,
            faults=FaultInjector(seed=CHAOS_SEED, rates={"sdc": 1.0}),
            abft=True,
        ),
    ),
    "guarded-5": (lambda p: compile_stencil(gallery.cross5(), p), 0,
                  lambda: dict(iterations=5, resilience=ResiliencePolicy())),
    "guarded-blocked": (
        lambda p: compile_stencil(gallery.cross5(), p), 0,
        lambda: dict(
            iterations=4, block_depth=2, resilience=ResiliencePolicy()
        ),
    ),
    "node-kill-spare": (
        lambda p: compile_stencil(gallery.square9(), p), 1,
        lambda: dict(
            iterations=3,
            faults=FaultInjector(
                seed=1, schedule=[HardFaultSpec("node_dead", 1, 1, 0)]
            ),
            resilience=ResiliencePolicy(max_remaps=1),
        ),
    ),
}


def one_by_one_run(mode, *, batched):
    """One ``mode`` run on a fresh machine: solo, or as a 1x1 batch."""
    factory, spares, kwargs = ONE_BY_ONE[mode]
    machine = make_machine(spares=spares)
    compiled = factory(machine.params)
    rng = np.random.default_rng(3)
    source = CMArray.from_numpy(
        "X", machine, rng.uniform(0.5, 1.5, GRID).astype(np.float32)
    )
    coeffs = {
        name: CMArray.from_numpy(
            name, machine, rng.uniform(0.0, 0.25, GRID).astype(np.float32)
        )
        for name in compiled.pattern.coefficient_names()
    }
    CMArray.from_numpy(
        "U", machine, rng.uniform(0.5, 1.5, GRID).astype(np.float32)
    )
    if batched:
        run = apply_stencil_batch([compiled], [source], coeffs, **kwargs())
        return run, run.result.to_numpy()[0, 0]
    run = apply_stencil(compiled, source, coeffs, "R", **kwargs())
    return run, run.result.to_numpy()


def record_figures(run):
    """Every figure of a run record but its result and fault-site
    strings (the buffer names differ between the two entry points)."""
    stats = run.fault_stats.to_dict()
    del stats["events"]
    return dict(
        iterations=run.iterations,
        exact=run.exact,
        block_depths=run.block_depths,
        num_exchanges=run.num_exchanges,
        coeff_exchanges=run.coeff_exchanges,
        total_comm_cycles=run.total_comm_cycles,
        total_compute_cycles=run.total_compute_cycles,
        total_half_strips=run.total_half_strips,
        host_calls=run.host_calls,
        host_half_strips=run.host_half_strips,
        elapsed_seconds=run.elapsed_seconds,
        fault_stats=stats,
    )


class TestBitIdentity:
    @pytest.mark.parametrize("boundary", ["torus", "fill"])
    @pytest.mark.parametrize("iterations", [1, 3])
    def test_mixed_pad_filter_set(self, boundary, iterations):
        """The headline shape: four filters of three different pads in
        one boundary group, several iterations."""
        machine = make_machine()
        patterns = [
            boundary_variant(p, boundary)
            for p in (
                gallery.cross5(),
                gallery.cross9(),
                gallery.square9(),
                gallery.diamond13(),
            )
        ]
        filters = [compile_stencil(p, machine.params) for p in patterns]
        coeffs = make_coeffs(machine, patterns)
        source, data = make_batch(machine, 3)
        run = apply_stencil_batch(
            filters, source, coeffs, iterations=iterations
        )
        expected = solo_results(
            machine, filters, coeffs, data, GRID, iterations=iterations
        )
        assert np.array_equal(run.result.to_numpy(), expected)

    def test_mixed_boundary_groups(self):
        """Torus and FILL filters in one call: two exchange groups,
        each bit-identical to its members' solo exchanges."""
        machine = make_machine()
        patterns = [
            boundary_variant(gallery.cross5(), "torus"),
            boundary_variant(gallery.square9(), "fill"),
            boundary_variant(gallery.diamond13(), "torus"),
        ]
        filters = [compile_stencil(p, machine.params) for p in patterns]
        coeffs = make_coeffs(machine, patterns)
        source, data = make_batch(machine, 2)
        run = apply_stencil_batch(filters, source, coeffs, iterations=2)
        expected = solo_results(
            machine, filters, coeffs, data, GRID, iterations=2
        )
        assert np.array_equal(run.result.to_numpy(), expected)

    @pytest.mark.parametrize("shape", [(1, 4), (4, 1)])
    def test_degenerate_node_grids(self, shape):
        """1xN and Nx1 node grids: self-neighbor exchanges still
        bit-identical through the shared batch halo."""
        machine = make_machine(shape)
        patterns = [gallery.cross5(), gallery.square9()]
        filters = [compile_stencil(p, machine.params) for p in patterns]
        coeffs = make_coeffs(machine, patterns)
        source, data = make_batch(machine, 2)
        run = apply_stencil_batch(filters, source, coeffs, iterations=2)
        expected = solo_results(
            machine, filters, coeffs, data, GRID, iterations=2
        )
        assert np.array_equal(run.result.to_numpy(), expected)

    @pytest.mark.parametrize("depth", [2, 3, "auto"])
    def test_temporal_blocking(self, depth):
        """Blocked batched runs match blocked solo runs bit for bit at
        every filter's resolved depth."""
        machine = make_machine()
        patterns = [gallery.cross5(), gallery.diamond13()]
        filters = [compile_stencil(p, machine.params) for p in patterns]
        coeffs = make_coeffs(machine, patterns)
        source, data = make_batch(machine, 2)
        run = apply_stencil_batch(
            filters, source, coeffs, iterations=5, block_depth=depth
        )
        batch = data.shape[0]
        expected = np.zeros((batch, len(filters)) + GRID, dtype=np.float32)
        for b in range(batch):
            src = CMArray.from_numpy(f"__bsrc{b}__", machine, data[b])
            for fi, compiled in enumerate(filters):
                res = CMArray(f"__bres{b}_{fi}__", machine, GRID)
                apply_stencil(
                    compiled,
                    src,
                    coeffs,
                    res,
                    iterations=5,
                    block_depth=run.block_depths[fi],
                )
                expected[b, fi] = res.to_numpy()
        assert np.array_equal(run.result.to_numpy(), expected)

    def test_blocked_fill_boundary(self):
        machine = make_machine()
        patterns = [
            boundary_variant(gallery.cross5(), "fill"),
            boundary_variant(gallery.square9(), "fill"),
        ]
        filters = [compile_stencil(p, machine.params) for p in patterns]
        coeffs = make_coeffs(machine, patterns)
        source, data = make_batch(machine, 2)
        run = apply_stencil_batch(
            filters, source, coeffs, iterations=4, block_depth=2
        )
        expected = solo_results(
            machine, filters, coeffs, data, GRID,
            iterations=4, block_depth=2,
        )
        assert np.array_equal(run.result.to_numpy(), expected)

    def test_exact_mode(self):
        """The staged cycle-stepped oracle equals both the solo exact
        runs and the batched fast path."""
        machine = make_machine()
        patterns = [gallery.cross5(), gallery.square9()]
        filters = [compile_stencil(p, machine.params) for p in patterns]
        coeffs = make_coeffs(machine, patterns, grid=(8, 8))
        source, data = make_batch(machine, 2, grid=(8, 8))
        run = apply_stencil_batch(
            filters, source, coeffs, iterations=2, exact=True
        )
        assert run.exact
        expected = solo_results(
            machine, filters, coeffs, data, (8, 8),
            iterations=2, exact=True,
        )
        assert np.array_equal(run.result.to_numpy(), expected)
        fast = apply_stencil_batch(
            filters, source, coeffs, result="Rfast", iterations=2
        )
        assert np.array_equal(
            run.result.to_numpy(), fast.result.to_numpy()
        )

    @pytest.mark.parametrize("mode", sorted(ONE_BY_ONE))
    def test_single_filter_single_grid(self, mode):
        """B=1, F=1 is exactly one solo call: the same result bits,
        totals, block depths, host calls, host half-strips and fault
        counters, in every execution mode and recovery path."""
        solo, solo_bits = one_by_one_run(mode, batched=False)
        run, bits = one_by_one_run(mode, batched=True)
        assert np.array_equal(
            bits.view(np.uint32), solo_bits.view(np.uint32)
        )
        assert record_figures(run) == record_figures(solo)


class TestAmortization:
    def test_one_pass_exchange_count(self):
        """Iterations=1, one boundary group: B messages serve B x F
        convolutions -- the tentpole invariant."""
        machine = make_machine()
        patterns = [
            gallery.cross5(),
            gallery.cross9(),
            gallery.square9(),
            gallery.diamond13(),
        ]
        filters = [compile_stencil(p, machine.params) for p in patterns]
        coeffs = make_coeffs(machine, patterns)
        batch = 5
        source, _ = make_batch(machine, batch)
        run = apply_stencil_batch(filters, source, coeffs)
        assert run.num_exchanges == batch
        assert run.host_calls == 1
        loop_exchanges = batch * len(filters)
        assert run.num_exchanges < loop_exchanges

    def test_iterated_exchange_count(self):
        """From iteration 1 on the filter states diverge, so each
        (entry, filter) pays its own message -- but still one machine
        pass (host call) per group per iteration."""
        machine = make_machine()
        patterns = [gallery.cross5(), gallery.square9()]
        filters = [compile_stencil(p, machine.params) for p in patterns]
        coeffs = make_coeffs(machine, patterns)
        batch, iters = 3, 4
        source, _ = make_batch(machine, batch)
        run = apply_stencil_batch(filters, source, coeffs, iterations=iters)
        expected = batch + (iters - 1) * batch * len(filters)
        assert run.num_exchanges == expected
        assert run.host_calls == iters

    def test_host_half_strips_not_scaled_by_batch(self):
        """The front end issues each filter's schedule once per pass;
        the sequencer's batch-stride loop executes it B times."""
        machine = make_machine()
        patterns = [gallery.cross5()]
        filters = [compile_stencil(p, machine.params) for p in patterns]
        coeffs = make_coeffs(machine, patterns)
        batch = 4
        source, _ = make_batch(machine, batch)
        run = apply_stencil_batch(filters, source, coeffs, iterations=2)
        assert run.total_half_strips == batch * run.host_half_strips

    def test_blocked_coeff_exchanges_amortized(self):
        """A blocked batch deep-exchanges each coefficient once, not
        once per entry: the per-filter coefficient cost a solo loop
        pays B times."""
        machine = make_machine()
        pattern = gallery.cross5()
        compiled = compile_stencil(pattern, machine.params)
        coeffs = make_coeffs(machine, [pattern])
        batch = 4
        source, _ = make_batch(machine, batch)
        run = apply_stencil_batch(
            [compiled], source, coeffs, iterations=4, block_depth=2
        )
        assert run.coeff_exchanges == len(pattern.coefficient_names())
        solo_costs = blocked_costs(compiled, run.result.subgrid_shape, 4, 2)
        loop_coeff = batch * solo_costs.coeff_exchanges
        assert run.coeff_exchanges < loop_coeff

    def test_per_filter_attribution_sums(self):
        """Per-filter compute/strip attribution partitions the totals."""
        machine = make_machine()
        patterns = [gallery.cross5(), gallery.diamond13()]
        filters = [compile_stencil(p, machine.params) for p in patterns]
        coeffs = make_coeffs(machine, patterns)
        source, _ = make_batch(machine, 3)
        run = apply_stencil_batch(filters, source, coeffs, iterations=2)
        assert (
            sum(c.compute_cycles for c in run.per_filter)
            == run.total_compute_cycles
        )
        assert (
            sum(c.half_strips for c in run.per_filter)
            == run.total_half_strips
        )
        assert sum(
            c.comm_cycles for c in run.per_filter
        ) == pytest.approx(run.total_comm_cycles)

    def test_batch_cost_model_depth1_matches_unblocked(self):
        """blocked_costs(depth=1) over a batch reproduces the unblocked
        batched accounting."""
        machine = make_machine()
        compiled = compile_stencil(gallery.cross5(), machine.params)
        costs = blocked_costs(compiled, (8, 8), 3, 1, batch=4)
        assert costs.num_blocks == 3
        assert costs.num_exchanges == 12
        assert costs.coeff_exchanges == 0
        assert costs.total_half_strips == 4 * costs.host_half_strips

    def test_best_batch_depth_never_worse_than_forced(self):
        params = MachineParams(num_nodes=4)
        compiled = compile_stencil(gallery.cross5(), params)
        best = best_block_depth(compiled, (8, 8), 16, batch=8)
        best_cost = blocked_costs(
            compiled, (8, 8), 16, best, batch=8
        ).modeled_seconds(params, 16)
        for depth in (1, 2, 4):
            other = blocked_costs(
                compiled, (8, 8), 16, depth, batch=8
            ).modeled_seconds(params, 16)
            assert best_cost <= other + 1e-12


class TestValidationAndStorage:
    def test_cmbatch_roundtrip(self):
        machine = make_machine()
        rng = np.random.default_rng(5)
        data = rng.standard_normal((2, 3) + GRID).astype(np.float32)
        batch = CMBatch.from_numpy("BB", machine, data)
        assert batch.lead_shape == (2, 3)
        assert batch.global_shape == GRID
        assert np.array_equal(batch.to_numpy(), data)
        batch.fill(1.5)
        assert np.all(batch.to_numpy() == np.float32(1.5))
        batch.free()
        assert machine.storage.get("BB") is None

    def test_cmbatch_rejects_rank2(self):
        machine = make_machine()
        with pytest.raises(ValueError, match="lead axis"):
            CMBatch.from_numpy(
                "B2", machine, np.zeros(GRID, dtype=np.float32)
            )

    def test_cmbatch_set_shape_error(self):
        machine = make_machine()
        batch = CMBatch("B3", machine, (2,), GRID)
        with pytest.raises(ValueError, match="does not match"):
            batch.set(np.zeros((3,) + GRID, dtype=np.float32))

    def test_result_must_not_alias_source(self):
        machine = make_machine()
        compiled = compile_stencil(gallery.cross5(), machine.params)
        coeffs = make_coeffs(machine, [gallery.cross5()])
        source, _ = make_batch(machine, 2)
        with pytest.raises(ExecutionSetupError, match="alias"):
            apply_stencil_batch(
                [compiled], source, coeffs, result=source.name
            )

    def test_mismatched_params_rejected(self):
        machine = make_machine()
        other = MachineParams(num_nodes=4, clock_hz=9e6)
        filters = [
            compile_stencil(gallery.cross5(), machine.params),
            compile_stencil(gallery.square9(), other),
        ]
        coeffs = make_coeffs(
            machine, [gallery.cross5(), gallery.square9()]
        )
        source, _ = make_batch(machine, 2)
        with pytest.raises(ExecutionSetupError, match="parameters"):
            apply_stencil_batch(filters, source, coeffs)

    def test_empty_filters_rejected(self):
        machine = make_machine()
        source, _ = make_batch(machine, 2)
        with pytest.raises(ValueError, match="at least one"):
            apply_stencil_batch([], source)

    def test_missing_coefficient_named(self):
        machine = make_machine()
        compiled = compile_stencil(gallery.cross5(), machine.params)
        source, _ = make_batch(machine, 2)
        with pytest.raises(ExecutionSetupError, match="C1"):
            apply_stencil_batch([compiled], source, {})

    def test_source_sequence_staging(self):
        """A list of plain CMArrays stages into the batch and matches
        the CMBatch path bit for bit."""
        machine = make_machine()
        patterns = [gallery.cross5(), gallery.square9()]
        filters = [compile_stencil(p, machine.params) for p in patterns]
        coeffs = make_coeffs(machine, patterns)
        rng = np.random.default_rng(9)
        data = rng.standard_normal((3,) + GRID).astype(np.float32)
        arrays = [
            CMArray.from_numpy(f"S{i}", machine, data[i]) for i in range(3)
        ]
        run = apply_stencil_batch(filters, arrays, coeffs, iterations=2)
        batch = CMBatch.from_numpy("SB", machine, data)
        run2 = apply_stencil_batch(
            filters, batch, coeffs, result="R2", iterations=2
        )
        assert np.array_equal(
            run.result.to_numpy(), run2.result.to_numpy()
        )

    def test_check_finite_names_offender(self):
        machine = make_machine()
        pattern = gallery.cross5()
        compiled = compile_stencil(pattern, machine.params)
        coeffs = make_coeffs(machine, [pattern])
        bad = coeffs["C1"].to_numpy()
        bad[0, 0] = np.nan
        coeffs["C1"].set(bad)
        source, data = make_batch(machine, 2)
        with pytest.raises(NonFiniteInputError, match="C1"):
            apply_stencil_batch(
                [compiled], source, coeffs, check_finite=True
            )
        coeffs["C1"].set(np.ones(GRID, dtype=np.float32))
        data[1, 3, 4] = np.inf
        source.set(data)
        with pytest.raises(NonFiniteInputError, match=r"entry 1 \('Xb\[1\]'\)"):
            apply_stencil_batch(
                [compiled], source, coeffs, check_finite=True
            )
        entries = [
            CMArray.from_numpy(f"S{b}", machine, data[b]) for b in range(2)
        ]
        with pytest.raises(NonFiniteInputError, match="entry 1 \\('S1'\\)"):
            apply_stencil_batch(
                [compiled], entries, coeffs, check_finite=True
            )

    def test_check_finite_names_fused_extra_source(self):
        machine = make_machine()
        fused = _fused(machine.params)
        coeffs = make_coeffs(machine, [fused.pattern])
        bad = np.ones(GRID, dtype=np.float32)
        bad[2, 2] = np.nan
        CMArray.from_numpy("U", machine, bad)
        source, _ = make_batch(machine, 2)
        with pytest.raises(NonFiniteInputError, match="'U'"):
            apply_stencil_batch([fused], source, coeffs, check_finite=True)

    def test_batched_shape_validation_names_axis(self):
        """Satellite: batched result-shape mismatches report the
        offending axis and expected extent, not a numpy broadcast
        error."""
        machine = make_machine()
        compiled = compile_stencil(gallery.cross5(), machine.params)
        coeffs = make_coeffs(machine, [gallery.cross5()])
        source, _ = make_batch(machine, 2)
        wrong = CMBatch("RW", machine, (2, 3), GRID)  # 3 != 1 filter
        with pytest.raises(ExecutionSetupError, match="axis 1"):
            apply_stencil_batch([compiled], source, coeffs, result=wrong)


class TestFaults:
    def test_soft_fault_campaign_bit_identical(self):
        """A seeded soft-fault campaign on a batched run detects and
        recovers every injected fault and lands on the clean bits."""
        machine = make_machine()
        patterns = [gallery.cross5(), gallery.diamond13()]
        filters = [compile_stencil(p, machine.params) for p in patterns]
        coeffs = make_coeffs(machine, patterns)
        source, _ = make_batch(machine, 2)
        clean = apply_stencil_batch(
            filters, source, coeffs, result="Rclean", iterations=3
        )
        injector = FaultInjector(
            seed=CHAOS_SEED,
            rates={"node_poison": 0.25, "halo_corrupt": 0.2},
        )
        guarded = apply_stencil_batch(
            filters,
            source,
            coeffs,
            result="Rchaos",
            iterations=3,
            faults=injector,
            resilience=ResiliencePolicy(max_retries=6),
        )
        assert np.array_equal(
            guarded.result.to_numpy(), clean.result.to_numpy()
        )
        stats = guarded.fault_stats
        assert stats.total_injected > 0
        assert stats.total_detected > 0
        assert guarded.num_exchanges == clean.num_exchanges
        assert guarded.total_comm_cycles == (
            clean.total_comm_cycles + stats.recovery_comm_cycles()
        )
        assert guarded.total_compute_cycles == (
            clean.total_compute_cycles + stats.recovery_compute_cycles()
        )

    @pytest.mark.parametrize(
        "spares,kwargs",
        [
            (0, lambda: dict(
                faults=FaultInjector(
                    seed=CHAOS_SEED, rates={"node_poison": 0.12}
                ),
                resilience=ResiliencePolicy(max_retries=0, max_replays=60),
            )),
            (1, lambda: dict(
                faults=FaultInjector(
                    seed=CHAOS_SEED,
                    schedule=[HardFaultSpec("node_dead", 3, 1, 0)],
                ),
                resilience=ResiliencePolicy(max_remaps=1),
            )),
            (0, lambda: dict(
                block_depth=2,
                faults=FaultInjector(
                    seed=CHAOS_SEED,
                    rates={"scratch_bitflip": 0.3, "halo_corrupt": 0.2},
                ),
                resilience=ResiliencePolicy(max_retries=6, max_replays=20),
            )),
            (1, lambda: dict(
                block_depth=2,
                faults=FaultInjector(
                    seed=CHAOS_SEED,
                    schedule=[HardFaultSpec("node_dead", 6, 1, 1)],
                ),
                resilience=ResiliencePolicy(max_remaps=1),
            )),
            (0, lambda: dict(
                faults=FaultInjector(seed=CHAOS_SEED, rates={"sdc": 1.0}),
                abft=True,
            )),
        ],
        ids=[
            "rollback", "node-kill", "blocked-replay", "blocked-node-kill",
            "abft",
        ],
    )
    def test_guarded_batch_recovers_and_reconciles(self, spares, kwargs):
        """Two boundary groups of mixed pads walk the recovery ladder:
        the bits equal the clean run's, and every total equals the
        clean closed form plus the recovery buckets."""
        patterns = [
            boundary_variant(gallery.cross5(), "torus"),
            boundary_variant(gallery.diamond13(), "torus"),
            boundary_variant(gallery.square9(), "fill"),
        ]

        def run(**extra):
            machine = make_machine(spares=spares)
            filters = [compile_stencil(p, machine.params) for p in patterns]
            coeffs = make_coeffs(machine, patterns)
            source, _ = make_batch(machine, 2)
            return apply_stencil_batch(
                filters, source, coeffs, iterations=4, **extra
            )

        guarded = run(**kwargs())
        clean = run(block_depth=guarded.block_depths[0])
        stats = guarded.fault_stats
        assert stats.total_injected > 0
        assert np.array_equal(
            guarded.result.to_numpy(), clean.result.to_numpy()
        )
        assert guarded.num_exchanges == clean.num_exchanges
        assert guarded.total_comm_cycles == (
            clean.total_comm_cycles + stats.recovery_comm_cycles()
        )
        assert guarded.total_compute_cycles == (
            clean.total_compute_cycles
            + stats.recovery_compute_cycles()
            + stats.abft_cycles
        )

    def test_guarded_batch_blocks_like_solo(self):
        """A guarded batch runs temporally blocked at the requested
        depth, as a guarded solo call does, and lands on the clean
        bits."""
        machine = make_machine()
        compiled = compile_stencil(gallery.cross5(), machine.params)
        coeffs = make_coeffs(machine, [gallery.cross5()])
        source, _ = make_batch(machine, 2)
        clean = apply_stencil_batch(
            [compiled], source, coeffs, result="Rclean", iterations=4
        )
        run = apply_stencil_batch(
            [compiled],
            source,
            coeffs,
            result="Rchaos",
            iterations=4,
            block_depth=4,
            faults=FaultInjector(seed=CHAOS_SEED),
        )
        assert run.block_depths == (4,)
        assert run.fault_stats.degradations == ()
        assert np.array_equal(run.result.to_numpy(), clean.result.to_numpy())


class TestLaplacian27:
    def test_batched_matches_reference_bits(self):
        machine = make_machine()
        rng = np.random.default_rng(21)
        x = CMArray3D.from_numpy(
            "X3",
            machine,
            rng.standard_normal((16, 16, 5)).astype(np.float32),
        )
        ref = apply_laplacian27_reference(
            x, "REF", params=machine.params
        )
        res, run = apply_laplacian27(x, "BAT", params=machine.params)
        assert np.array_equal(ref.to_numpy(), res.to_numpy())
        # 5 slabs x 3 filters share one exchange per slab.
        assert run.num_exchanges == 5
        assert run.batch == 5

    def test_matches_dense_float64_laplacian(self):
        machine = make_machine()
        rng = np.random.default_rng(22)
        host = rng.standard_normal((16, 16, 4)).astype(np.float32)
        x = CMArray3D.from_numpy("X3d", machine, host)
        res, _ = apply_laplacian27(x, "BATd", params=machine.params)
        data = host.astype(np.float64)
        expect = np.zeros_like(data)
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    nonzero = (dy != 0) + (dx != 0) + (dz != 0)
                    weight = (-88.0, 6.0, 3.0, 2.0)[nonzero] / 26.0
                    expect += weight * np.roll(
                        np.roll(np.roll(data, -dy, 0), -dx, 1), -dz, 2
                    )
        assert np.allclose(res.to_numpy(), expect, atol=1e-4)

    def test_weights_sum_to_zero(self):
        taps = [
            tap
            for pattern in (
                gallery.laplacian27_below(),
                gallery.laplacian27_mid(),
                gallery.laplacian27_above(),
            )
            for tap in pattern.taps
        ]
        assert len(taps) == 27
        assert sum(t.coeff.value for t in taps) == pytest.approx(0.0)


class TestAnalysis:
    def test_account_batch_scales_points(self):
        patterns = [gallery.cross5(), gallery.square9()]
        accounts = account_batch(patterns, (8, 8), batch=4, nodes=16)
        assert accounts[0].points == 8 * 8 * 16 * 4
        assert accounts[0].useful_flops == 9 * accounts[0].points
        blocked = account_batch(
            patterns, (8, 8), batch=4, iterations=4, nodes=16, depths=(2, 2)
        )
        assert blocked[0].redundant_points > 0

    def test_batch_report_rows(self):
        machine = make_machine()
        patterns = [gallery.cross5(), gallery.square9()]
        filters = [compile_stencil(p, machine.params) for p in patterns]
        coeffs = make_coeffs(machine, patterns)
        source, _ = make_batch(machine, 2)
        run = apply_stencil_batch(filters, source, coeffs, iterations=2)
        report = batch_report(run)
        assert report.batch == 2
        assert len(report.per_filter) == 2
        text = report.rows()
        assert "cross5" in text and "square9" in text
        assert report.measured_mflops == pytest.approx(run.mflops)


class TestService:
    def test_batched_job_solo_identical_to_loop(self):
        """A batched service job's output entry (b, f) equals the
        equivalent per-filter solo jobs run on the same machine data."""
        job = StencilJob(
            tenant="t",
            filters=("cross5", "square9"),
            batch=2,
            grid_shape=(16, 16),
            iterations=2,
            seed=77,
            partition_shape=(2, 2),
        )
        result = solo_run(job)
        assert result.output.shape == (2, 2, 16, 16)
        # Re-derive the job's deterministic inputs and loop solo.
        machine = make_machine()
        patterns = job.build_filters()
        filters = [compile_stencil(p, machine.params) for p in patterns]
        rng = np.random.default_rng(job.seed)
        data = rng.standard_normal((2,) + (16, 16)).astype(np.float32)
        names = sorted(
            {n for p in patterns for n in p.coefficient_names()}
        )
        coeffs = {
            name: CMArray.from_numpy(
                name,
                machine,
                rng.standard_normal((16, 16)).astype(np.float32),
            )
            for name in names
        }
        expected = solo_results(
            machine, filters, coeffs, data, (16, 16), iterations=2
        )
        assert np.array_equal(result.output, expected)

    def test_batched_job_rerun_identical(self):
        job = StencilJob(
            tenant="t",
            filters=("cross5", "diamond13"),
            batch=3,
            grid_shape=(16, 16),
            seed=5,
            partition_shape=(2, 2),
        )
        a = solo_run(job)
        b = solo_run(job)
        assert a.identical_to(b)

    def test_batch_validation(self):
        with pytest.raises(JobSpecError, match="batch must be >= 1"):
            StencilJob(tenant="t", batch=0)
        with pytest.raises(JobSpecError, match="unknown gallery pattern"):
            StencilJob(tenant="t", filters=("no_such_pattern",))
        with pytest.raises(JobSpecError, match="at least one"):
            StencilJob(tenant="t", filters=())

    def test_batched_job_with_a_spare_survives_a_node_death(self, monkeypatch):
        """A batched job arms its spare like a solo job: a node killed
        mid-run is remapped, and the output equals the fault-free
        run's bits."""
        spec = dict(
            tenant="t",
            filters=("cross5", "square9"),
            batch=2,
            grid_shape=(16, 16),
            iterations=3,
            seed=12,
            partition_shape=(2, 2),
        )
        scripted = lambda seed, rates: FaultInjector(  # noqa: E731
            seed=seed,
            rates=rates,
            schedule=[HardFaultSpec("node_dead", 2, 1, 0)],
        )
        monkeypatch.setattr(jobs, "FaultInjector", scripted)
        survived = solo_run(StencilJob(spares=1, **spec))
        assert survived.fault_stats.remaps == 1
        assert survived.identical_to(solo_run(StencilJob(**spec)))

    def test_from_dict_filters(self):
        job = StencilJob.from_dict(
            {
                "tenant": "t",
                "filters": ["cross5", "cross9"],
                "batch": 2,
                "grid_shape": [16, 16],
            }
        )
        assert job.filters == ("cross5", "cross9")
        assert job.batched

    def test_chaos_batched_job_runs(self):
        job = StencilJob(
            tenant="t",
            filters=("cross5",),
            batch=2,
            grid_shape=(16, 16),
            iterations=2,
            seed=3,
            fault_rates={"halo_corrupt": 0.3},
            fault_seed=4,
            partition_shape=(2, 2),
        )
        guarded = solo_run(job)
        clean_job = StencilJob(
            tenant="t",
            filters=("cross5",),
            batch=2,
            grid_shape=(16, 16),
            iterations=2,
            seed=3,
            partition_shape=(2, 2),
        )
        clean = solo_run(clean_job)
        assert guarded.identical_to(clean)
