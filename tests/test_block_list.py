"""The block list: one loop and one price for every block depth.

A run is a list of blocks (``runtime.blocking.BlockList``).  The engine
runs it, its closed form prices it, and the depth selector compares
candidate lists with the same price.  These tests pin the schedules
where some filters block and some do not -- a depth-1 filter never
pays for a sibling's blocking -- and sweep such mixed-depth runs
through every execution path: unguarded, guarded, with seeded faults,
and under ABFT with silent corruption.

``CHAOS_SEED`` seeds the injectors from the environment, so CI can
sweep seeds without code changes.
"""

import os

import numpy as np
import pytest

from repro.analysis.chaos import boundary_variant
from repro.compiler import driver
from repro.compiler.driver import compile_stencil
from repro.machine.machine import CM2
from repro.machine.params import MachineParams
from repro.runtime.batch import apply_stencil_batch
from repro.runtime.blocking import BlockList
from repro.runtime.cm_array import CMArray
from repro.runtime.faults import FaultError, FaultInjector, ResiliencePolicy
from repro.runtime.stencil_op import apply_stencil
from repro.stencil import gallery

#: The injector seed of the guarded cases; CI sweeps it.
CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "11"))

#: Four gallery filters whose one-filter picks on 4x4 subgrids block
#: the two pad-1 filters and leave the two pad-2 ones at depth 1.
TABLE1 = ("cross5", "square9", "cross9", "diamond13")
TABLE1_PICKS = (3, 3, 1, 1)


def capped_pair():
    """cross(3)'s pad of 3 caps it at depth 1 on 4x4 subgrids, beside a
    cross5 blocked at depth 3."""
    return (gallery.cross5(), gallery.cross(3))


def make_problem(patterns, batch, shape=(16, 16), num_nodes=16, seed=0):
    """Filters, ``batch`` source grids and every coefficient array on a
    fresh machine (4x4 subgrids by default)."""
    params = MachineParams(num_nodes=num_nodes)
    machine = CM2(params)
    filters = [compile_stencil(pattern, params) for pattern in patterns]
    rng = np.random.default_rng(seed)
    sources = [
        CMArray.from_numpy(
            f"X{b}", machine, rng.standard_normal(shape).astype(np.float32)
        )
        for b in range(batch)
    ]
    names = dict.fromkeys(
        name for pattern in patterns for name in pattern.coefficient_names()
    )
    coeffs = {
        name: CMArray.from_numpy(
            name, machine, rng.standard_normal(shape).astype(np.float32)
        )
        for name in names
    }
    return machine, filters, sources, coeffs


def solo_results(filters, sources, coeffs, iterations):
    """Each filter applied alone to each grid: the bits a batched run
    must reproduce."""
    return np.stack(
        [
            np.stack(
                [
                    apply_stencil(
                        compiled, source, coeffs, "R_SOLO",
                        iterations=iterations,
                    ).result.to_numpy()
                    for compiled in filters
                ]
            )
            for source in sources
        ]
    )


class TestMixedDepthSchedule:
    def test_a_depth_one_filter_exchanges_no_coefficient_halo(self):
        """Only the blocked filter deep-exchanges its five coefficients
        -- cross(3) at depth 1 reads no coefficient halo -- and the bits
        equal the solo runs."""
        machine, filters, sources, coeffs = make_problem(capped_pair(), batch=2)
        run = apply_stencil_batch(
            filters, sources, coeffs, iterations=6, block_depth=3
        )
        assert run.block_depths == (3, 1)
        assert run.coeff_exchanges == 5
        assert [cost.coeff_exchanges for cost in run.per_filter] == [5, 0]
        np.testing.assert_array_equal(
            run.result.to_numpy(), solo_results(filters, sources, coeffs, 6)
        )

    def test_mixed_schedule_prices_below_the_split_loops(self):
        """The four filters at their per-filter picks: the depth-1 pair
        shares one gathered pass per iteration and exchanges no
        coefficient halo, so the schedule prices at 41.88 ms."""
        params = MachineParams(num_nodes=16)
        filters = [
            compile_stencil(getattr(gallery, name)(), params)
            for name in TABLE1
        ]
        blocks = BlockList(filters, (4, 4), 16, TABLE1_PICKS)
        totals, host_calls, _ = blocks.closed_form(1)
        assert totals.coeff_exchanges == 9
        assert host_calls == 26
        assert blocks.seconds(1) == pytest.approx(0.04188, abs=5e-6)
        ones = BlockList(filters, (4, 4), 16, (1, 1, 1, 1))
        assert ones.seconds(1) == pytest.approx(0.03440, abs=5e-6)

    def test_auto_prices_the_filter_set(self):
        """Each filter alone would block at (3, 3, 1, 1), but the set
        prices lower unblocked, so "auto" resolves every filter to 1."""
        driver.clear_compile_cache()
        patterns = [getattr(gallery, name)() for name in TABLE1]
        machine, filters, sources, coeffs = make_problem(patterns, batch=1)
        auto = apply_stencil_batch(
            filters, sources, coeffs, iterations=16, block_depth="auto"
        )
        assert auto.block_depths == (1, 1, 1, 1)
        assert auto.elapsed_seconds == pytest.approx(0.03440, abs=5e-6)
        plain = apply_stencil_batch(filters, sources, coeffs, iterations=16)
        assert auto.elapsed_seconds == plain.elapsed_seconds
        np.testing.assert_array_equal(
            auto.result.to_numpy(), plain.result.to_numpy()
        )


def run_modes(monkeypatch, patterns, depths, batch, iterations):
    """Yield ``(mode, run or FaultError, filters, sources, coeffs)`` for
    a mixed-depth batched run on every execution path, each on a fresh
    problem with the same bits."""
    # Pin the resolved depths: "auto" resolves through the driver.
    monkeypatch.setattr(
        driver, "select_batch_block_depths", lambda *args, **kwargs: depths
    )
    modes = {
        "unguarded": {},
        "guarded": dict(resilience=ResiliencePolicy()),
        "faults": dict(
            faults=FaultInjector(
                seed=CHAOS_SEED,
                rates={
                    "halo_corrupt": 0.1,
                    "node_poison": 0.1,
                    "scratch_bitflip": 0.1,
                },
            ),
            # One re-run per block, then a rollback to the checkpoint
            # every two iterations where the blocks allow it.
            resilience=ResiliencePolicy(max_retries=1, checkpoint_interval=2),
        ),
        "abft-sdc": dict(
            faults=FaultInjector(seed=CHAOS_SEED, rates={"sdc": 0.5}),
            resilience=ResiliencePolicy(abft=True),
        ),
    }
    for mode, guard in modes.items():
        machine, filters, sources, coeffs = make_problem(patterns, batch)
        try:
            run = apply_stencil_batch(
                filters, sources, coeffs, iterations=iterations,
                block_depth="auto", **guard,
            )
        except FaultError as error:
            run = error
        yield mode, run, filters, sources, coeffs


class TestMixedDepthSweep:
    """Mixed-depth runs on every path: bit-identical to the solo
    reference or a typed error, always reconciled, and the unguarded
    totals are the block list's closed form."""

    @pytest.mark.parametrize("boundary", ["torus", "fill"])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize(
        "kind,depths",
        [("table1", TABLE1_PICKS), ("capped", (3, 1))],
    )
    def test_every_path(self, monkeypatch, kind, depths, batch, boundary):
        base = (
            [getattr(gallery, name)() for name in TABLE1]
            if kind == "table1" else capped_pair()
        )
        patterns = [boundary_variant(pattern, boundary) for pattern in base]
        iterations = 7
        expected = None
        for mode, run, filters, sources, coeffs in run_modes(
            monkeypatch, patterns, depths, batch, iterations
        ):
            if isinstance(run, FaultError):
                assert mode == "faults", f"{mode} raised {run!r}"
                continue
            if expected is None:
                expected = solo_results(filters, sources, coeffs, iterations)
            # A run that stepped down the ladder finished on one-step
            # blocks.
            stepped = bool(run.fault_stats.degradations)
            assert run.block_depths == (
                (1,) * len(depths) if stepped else depths
            ), mode
            np.testing.assert_array_equal(
                run.result.to_numpy(), expected, err_msg=mode
            )
            assert run.reconciled, mode
            if mode == "unguarded":
                totals, host_calls, _ = BlockList(
                    filters, (4, 4), iterations, depths
                ).closed_form(batch)
                assert run.closed_form == totals
                assert run.host_calls == host_calls
                assert (
                    run.num_exchanges,
                    run.coeff_exchanges,
                    run.total_comm_cycles,
                    run.total_compute_cycles,
                    run.total_half_strips,
                ) == tuple(totals)
