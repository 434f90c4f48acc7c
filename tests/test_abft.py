"""Algorithm-based fault tolerance: checksums, forward correction, SDC.

The contract under test is the ABFT acceptance property: every injected
silent bit-flip in a resident result stack is *detected* by the GF(2)
row/column checksum residuals; single-cell damage per tile is
*localized* (intersect the violated row and column) and
*forward-corrected* in place -- bit-exactly, with zero rollback and zero
replay; multi-cell damage falls back to the checkpoint/rollback ladder
or surfaces as the typed :class:`SdcUncorrectableError`.  Seal/verify
overhead is charged to the dedicated ``abft_cycles`` bucket and the
run's totals reconcile exactly as ``reference + recovery + abft``.
"""

import numpy as np
import pytest

from repro.compiler.driver import compile_stencil
from repro.machine.machine import CM2
from repro.machine.params import MachineParams
from repro.runtime.abft import (
    AbftSeal,
    col_parity,
    row_parity,
    seal_checksums,
    verify_and_correct,
)
from repro.runtime.batch import apply_stencil_batch
from repro.runtime.cm_array import CMArray
from repro.runtime.faults import (
    FaultError,
    FaultGuard,
    FaultInjector,
    FaultKind,
    ResiliencePolicy,
    SdcUncorrectableError,
)
from repro.runtime.stencil_op import apply_stencil
from repro.stencil.gallery import cross5, cross9, square9

SHAPE = (16, 24)  # 4 nodes -> 2x2 grid of 8x12 subgrids
ITERATIONS = 6


def make_problem(pattern, *, num_nodes=4, seed=0, shape=SHAPE,
                 grid=None):
    params = MachineParams(num_nodes=num_nodes)
    machine = CM2(params, shape=grid)
    compiled = compile_stencil(pattern, params)
    rng = np.random.default_rng(seed)
    x = CMArray.from_numpy(
        "X", machine, rng.standard_normal(shape).astype(np.float32)
    )
    coeffs = {
        name: CMArray.from_numpy(
            name, machine, rng.standard_normal(shape).astype(np.float32)
        )
        for name in pattern.coefficient_names()
    }
    return machine, compiled, x, coeffs


def random_stack(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape).astype(np.float32)


def flip(stack, index, bit):
    stack.view(np.uint32)[index] ^= np.uint32(1 << bit)


# ----------------------------------------------------------------------
# Checksum algebra
# ----------------------------------------------------------------------


def test_parity_shapes_drop_the_reduced_axis():
    stack = random_stack((2, 2, 8, 12))
    assert row_parity(stack).shape == (2, 2, 8)
    assert col_parity(stack).shape == (2, 2, 12)
    batched = random_stack((3, 2, 2, 8, 12), seed=1)
    assert row_parity(batched).shape == (3, 2, 2, 8)
    assert col_parity(batched).shape == (3, 2, 2, 12)


def test_parity_requires_float32():
    with pytest.raises(TypeError, match="float32"):
        row_parity(np.zeros((2, 2, 4, 4), dtype=np.float64))


def test_clean_stack_verifies_with_zero_corrections():
    stack = random_stack((2, 2, 8, 12))
    sealed = seal_checksums(stack)
    before = stack.copy()
    assert verify_and_correct(stack, sealed, site="clean") == 0
    assert np.array_equal(stack, before)


def test_single_flip_is_localized_and_restored_bit_exactly():
    stack = random_stack((2, 2, 8, 12))
    pristine = stack.copy()
    sealed = seal_checksums(stack)
    flip(stack, (1, 0, 5, 7), 22)
    assert not np.array_equal(stack, pristine)
    assert verify_and_correct(stack, sealed, site="single") == 1
    assert np.array_equal(
        stack.view(np.uint32), pristine.view(np.uint32)
    )


def test_single_flip_under_batched_lead_axes():
    stack = random_stack((3, 2, 2, 2, 6, 8), seed=2)
    pristine = stack.copy()
    sealed = seal_checksums(stack)
    flip(stack, (2, 1, 0, 1, 3, 5), 3)
    assert verify_and_correct(stack, sealed, site="batched") == 1
    assert np.array_equal(
        stack.view(np.uint32), pristine.view(np.uint32)
    )


def test_two_flips_in_one_tile_row_are_uncorrectable():
    stack = random_stack((2, 2, 8, 12))
    sealed = seal_checksums(stack)
    flip(stack, (0, 1, 4, 2), 9)
    flip(stack, (0, 1, 4, 10), 17)
    with pytest.raises(SdcUncorrectableError, match="multi-cell"):
        verify_and_correct(stack, sealed, site="same-row")


def test_flips_in_two_different_tiles_both_forward_correct():
    stack = random_stack((2, 2, 8, 12))
    pristine = stack.copy()
    sealed = seal_checksums(stack)
    flip(stack, (0, 0, 1, 2), 5)
    flip(stack, (1, 1, 6, 9), 28)
    assert verify_and_correct(stack, sealed, site="two-tiles") == 2
    assert np.array_equal(
        stack.view(np.uint32), pristine.view(np.uint32)
    )


def test_missing_seal_and_shape_mismatch_are_typed():
    stack = random_stack((2, 2, 4, 4))
    with pytest.raises(SdcUncorrectableError, match="no ABFT seal"):
        verify_and_correct(stack, None, site="missing")
    sealed = seal_checksums(stack)
    stale = AbftSeal(row=sealed.row, col=sealed.col, shape=(2, 2, 8, 8))
    with pytest.raises(SdcUncorrectableError, match="shape"):
        verify_and_correct(stack, stale, site="stale")


# ----------------------------------------------------------------------
# Knob validation
# ----------------------------------------------------------------------


def test_policy_rejects_abft_without_a_fallback_ladder():
    with pytest.raises(ValueError) as excinfo:
        ResiliencePolicy(abft=True, max_replays=0)
    message = str(excinfo.value)
    assert "abft" in message and "max_replays" in message


def test_guard_rejects_sdc_rate_without_abft():
    injector = FaultInjector(seed=1, rates={"sdc": 0.5})
    with pytest.raises(ValueError, match="abft"):
        FaultGuard(policy=ResiliencePolicy(), injector=injector)
    # The same pairing with abft on constructs fine.
    FaultGuard(policy=ResiliencePolicy(abft=True), injector=injector)


def test_sdc_is_a_registered_fault_kind_but_not_transient_or_hard():
    from repro.runtime.faults import (
        ALL_FAULT_KINDS,
        HARD_FAULT_KINDS,
        TRANSIENT_FAULT_KINDS,
    )

    assert FaultKind.SDC.value in ALL_FAULT_KINDS
    assert FaultKind.SDC.value not in TRANSIENT_FAULT_KINDS
    assert FaultKind.SDC.value not in HARD_FAULT_KINDS


# ----------------------------------------------------------------------
# End-to-end: solo executor
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_solo_fast_forward_corrects_every_strike(seed):
    pattern = cross5()
    _, ref_compiled, ref_x, ref_coeffs = make_problem(pattern, seed=seed)
    reference = apply_stencil(
        ref_compiled, ref_x, ref_coeffs, "R_REF", iterations=ITERATIONS
    )
    _, compiled, x, coeffs = make_problem(pattern, seed=seed)
    injector = FaultInjector(seed=seed, rates={"sdc": 1.0})
    run = apply_stencil(
        compiled, x, coeffs, "R", iterations=ITERATIONS,
        faults=injector, resilience=ResiliencePolicy(abft=True),
    )
    stats = run.fault_stats
    assert np.array_equal(
        run.result.to_numpy(), reference.result.to_numpy()
    )
    assert stats.total_injected == ITERATIONS
    assert stats.sdc_corrections == stats.total_injected
    assert stats.total_detected >= stats.total_injected
    # Forward recovery: no rollback, no replay, no rung degradation.
    assert stats.rollbacks == 0
    assert stats.replayed_iterations == 0
    assert not stats.degradations
    # Exact reconciliation, abft overhead in its own bucket.
    assert stats.abft_seals == ITERATIONS
    assert stats.abft_verifies == ITERATIONS
    assert stats.abft_cycles > 0
    assert (
        run.total_comm_cycles
        == reference.total_comm_cycles + stats.recovery_comm_cycles()
    )
    assert run.total_compute_cycles == (
        reference.total_compute_cycles
        + stats.recovery_compute_cycles()
        + stats.abft_cycles
    )


def test_solo_blocked_forward_corrects_between_blocks():
    pattern = square9()
    _, ref_compiled, ref_x, ref_coeffs = make_problem(pattern, seed=4)
    reference = apply_stencil(
        ref_compiled, ref_x, ref_coeffs, "R_REF",
        iterations=ITERATIONS, block_depth=3,
    )
    _, compiled, x, coeffs = make_problem(pattern, seed=4)
    run = apply_stencil(
        compiled, x, coeffs, "R", iterations=ITERATIONS, block_depth=3,
        faults=FaultInjector(seed=4, rates={"sdc": 1.0}),
        resilience=ResiliencePolicy(abft=True),
    )
    stats = run.fault_stats
    assert np.array_equal(
        run.result.to_numpy(), reference.result.to_numpy()
    )
    assert stats.sdc_corrections == stats.total_injected > 0
    assert stats.rollbacks == 0 and stats.replayed_iterations == 0
    assert run.total_compute_cycles == (
        reference.total_compute_cycles
        + stats.recovery_compute_cycles()
        + stats.abft_cycles
    )


@pytest.mark.parametrize(
    "grid,shape",
    [((1, 2), (8, 24)), ((2, 1), (16, 12))],
    ids=["1x2", "2x1"],
)
def test_degenerate_node_grids_forward_correct(grid, shape):
    """1xN / Nx1 node grids: row/col checksums still localize."""
    pattern = cross5()
    _, ref_compiled, ref_x, ref_coeffs = make_problem(
        pattern, num_nodes=2, seed=5, shape=shape, grid=grid
    )
    reference = apply_stencil(
        ref_compiled, ref_x, ref_coeffs, "R_REF", iterations=ITERATIONS
    )
    _, compiled, x, coeffs = make_problem(
        pattern, num_nodes=2, seed=5, shape=shape, grid=grid
    )
    run = apply_stencil(
        compiled, x, coeffs, "R", iterations=ITERATIONS,
        faults=FaultInjector(seed=5, rates={"sdc": 1.0}),
        resilience=ResiliencePolicy(abft=True),
    )
    stats = run.fault_stats
    assert np.array_equal(
        run.result.to_numpy(), reference.result.to_numpy()
    )
    assert stats.sdc_corrections == stats.total_injected > 0
    assert stats.rollbacks == 0


def test_multicell_damage_takes_the_ladder_or_a_typed_error():
    """Three flips per strike on one node: beyond forward correction."""
    pattern = cross5()
    _, ref_compiled, ref_x, ref_coeffs = make_problem(
        pattern, num_nodes=1, seed=6, shape=(8, 12)
    )
    reference = apply_stencil(
        ref_compiled, ref_x, ref_coeffs, "R_REF", iterations=ITERATIONS
    )
    _, compiled, x, coeffs = make_problem(
        pattern, num_nodes=1, seed=6, shape=(8, 12)
    )
    injector = FaultInjector(seed=6, rates={"sdc": 1.0}, sdc_cells=3)
    try:
        run = apply_stencil(
            compiled, x, coeffs, "R", iterations=ITERATIONS,
            faults=injector, resilience=ResiliencePolicy(abft=True),
        )
    except FaultError:
        return  # typed refusal is within contract
    stats = run.fault_stats
    assert np.array_equal(
        run.result.to_numpy(), reference.result.to_numpy()
    )
    # Forward correction cannot have healed a 3-cell strike alone.
    assert stats.total_injected > 0
    assert stats.rollbacks > 0 or stats.degradations


def test_abft_knob_alone_is_bit_identical_with_charged_overhead():
    pattern = cross9()
    _, ref_compiled, ref_x, ref_coeffs = make_problem(pattern, seed=7)
    reference = apply_stencil(
        ref_compiled, ref_x, ref_coeffs, "R_REF", iterations=ITERATIONS
    )
    _, compiled, x, coeffs = make_problem(pattern, seed=7)
    run = apply_stencil(
        compiled, x, coeffs, "R", iterations=ITERATIONS,
        resilience=ResiliencePolicy(abft=True),
    )
    stats = run.fault_stats
    assert np.array_equal(
        run.result.to_numpy(), reference.result.to_numpy()
    )
    assert stats.abft_seals == ITERATIONS
    assert stats.abft_verifies == ITERATIONS
    assert stats.sdc_corrections == 0
    # Periodic checkpoints still charge their copies into the recovery
    # bucket; the abft overhead stays separate.
    assert run.total_compute_cycles == (
        reference.total_compute_cycles
        + stats.recovery_compute_cycles()
        + stats.abft_cycles
    )


# ----------------------------------------------------------------------
# End-to-end: batched executor
# ----------------------------------------------------------------------


def build_batch(seed, *, batch=2, shape=SHAPE, nodes=4):
    params = MachineParams(num_nodes=nodes)
    machine = CM2(params)
    patterns = (cross5(), cross9())  # mixed pads: 1 and 2
    filters = tuple(compile_stencil(p, params) for p in patterns)
    rng = np.random.default_rng(seed)
    sources = [
        CMArray.from_numpy(
            f"X{b}", machine, rng.standard_normal(shape).astype(np.float32)
        )
        for b in range(batch)
    ]
    coeffs = {
        name: CMArray.from_numpy(
            name, machine, rng.standard_normal(shape).astype(np.float32)
        )
        for p in patterns
        for name in p.coefficient_names()
    }
    return filters, sources, coeffs


def test_batched_mixed_pads_forward_correct():
    ref_filters, ref_sources, ref_coeffs = build_batch(8)
    reference = apply_stencil_batch(
        ref_filters, ref_sources, ref_coeffs, "R_REF", iterations=4
    )
    filters, sources, coeffs = build_batch(8)
    run = apply_stencil_batch(
        filters, sources, coeffs, "R", iterations=4,
        faults=FaultInjector(seed=8, rates={"sdc": 1.0}),
        resilience=ResiliencePolicy(abft=True),
    )
    stats = run.fault_stats
    assert np.array_equal(
        run.result.to_numpy(), reference.result.to_numpy()
    )
    assert stats.sdc_corrections == stats.total_injected > 0
    assert stats.rollbacks == 0 and stats.replayed_iterations == 0
    assert run.total_comm_cycles == (
        reference.total_comm_cycles + stats.recovery_comm_cycles()
    )
    assert run.total_compute_cycles == (
        reference.total_compute_cycles
        + stats.recovery_compute_cycles()
        + stats.abft_cycles
    )


def test_batched_abft_knob_matches_solo_runs():
    filters, sources, coeffs = build_batch(9)
    run = apply_stencil_batch(
        filters, sources, coeffs, "R", iterations=3,
        resilience=ResiliencePolicy(abft=True),
    )
    assert run.fault_stats.abft_seals > 0
    solo_filters, solo_sources, solo_coeffs = build_batch(9)
    for b, source in enumerate(solo_sources):
        for f, compiled in enumerate(solo_filters):
            solo = apply_stencil(
                compiled, source, solo_coeffs, f"R_{b}_{f}", iterations=3
            )
            assert np.array_equal(
                run.result.to_numpy()[b, f], solo.result.to_numpy()
            )


# ----------------------------------------------------------------------
# Mutation self-test: the verifier must be load-bearing
# ----------------------------------------------------------------------


def test_disabled_verifier_lets_corruption_through(monkeypatch):
    """Neuter verify_and_correct and the single-cell suite MUST fail:
    proof the bit-identity above is earned by the verifier, not by
    accident."""
    import repro.runtime.batch as engine

    monkeypatch.setattr(
        engine, "verify_and_correct",
        lambda stack, sealed, *, site, guard=None: 0,
    )
    pattern = cross5()
    _, ref_compiled, ref_x, ref_coeffs = make_problem(pattern, seed=1)
    reference = apply_stencil(
        ref_compiled, ref_x, ref_coeffs, "R_REF", iterations=ITERATIONS
    )
    _, compiled, x, coeffs = make_problem(pattern, seed=1)
    run = apply_stencil(
        compiled, x, coeffs, "R", iterations=ITERATIONS,
        faults=FaultInjector(seed=1, rates={"sdc": 1.0}),
        resilience=ResiliencePolicy(abft=True),
    )
    assert not np.array_equal(
        run.result.to_numpy(), reference.result.to_numpy()
    )


# ----------------------------------------------------------------------
# The SDC campaign and the CLI seed grammar
# ----------------------------------------------------------------------


def test_sdc_campaign_single_seed_is_ok():
    from repro.analysis.chaos import SdcReport, run_sdc_campaign

    report = run_sdc_campaign(seeds=(3,))
    assert report.ok
    assert report.silent_corruptions == 0
    assert report.unreconciled == 0
    singles = report.single_cell_trials
    assert singles and all(t.forward and t.survived for t in singles)
    assert all(
        t.rollbacks == 0 and t.replays == 0 for t in singles
    )
    assert report.multicell_trials
    roundtrip = SdcReport.from_dict(report.to_dict())
    assert roundtrip.to_dict() == report.to_dict()


def test_parse_seeds_grammar():
    from repro.__main__ import SeedSpecError, _parse_seeds

    assert _parse_seeds("1,2,3") == (1, 2, 3)
    assert _parse_seeds("1-5") == (1, 2, 3, 4, 5)
    assert _parse_seeds("1-3,7") == (1, 2, 3, 7)
    assert _parse_seeds(" 2 , 4-5 ") == (2, 4, 5)


@pytest.mark.parametrize(
    "text,needle",
    [
        ("x", "'x'"),
        ("1-3,y", "'y'"),
        ("1--3", "'1--3'"),
        ("5-2", "'5-2'"),
        ("", "''"),
    ],
)
def test_parse_seeds_names_the_bad_token(text, needle):
    from repro.__main__ import SeedSpecError, _parse_seeds

    with pytest.raises(SeedSpecError) as excinfo:
        _parse_seeds(text)
    assert needle in str(excinfo.value)
    assert isinstance(excinfo.value, ValueError)


# ----------------------------------------------------------------------
# Service plumbing
# ----------------------------------------------------------------------


def test_stencil_job_abft_roundtrip_and_contradiction():
    from repro.service import JobSpecError, StencilJob

    job = StencilJob(
        tenant="acme", pattern="cross5", grid_shape=(16, 24),
        iterations=3, abft=True,
        fault_rates={"sdc": 1.0}, fault_seed=2,
    )
    assert StencilJob.from_dict(job.to_dict()) == job
    assert job.guarded
    with pytest.raises(JobSpecError, match="abft"):
        StencilJob(
            tenant="acme", pattern="cross5", grid_shape=(16, 24),
            fault_rates={"sdc": 1.0},
        )


def test_service_job_heals_sdc_bit_identically():
    from repro.service import StencilJob, execute_job, solo_run

    job = StencilJob(
        tenant="acme", pattern="cross5", grid_shape=(16, 24),
        iterations=4, abft=True,
        fault_rates={"sdc": 1.0}, fault_seed=3,
    )
    clean = StencilJob(
        tenant="acme", pattern="cross5", grid_shape=(16, 24),
        iterations=4,
    )
    params = MachineParams(num_nodes=4)
    chaos = solo_run(job, params=params, shape=(2, 2))
    reference = solo_run(clean, params=params, shape=(2, 2))
    assert chaos.fault_stats.sdc_corrections > 0
    assert np.array_equal(chaos.output, reference.output)
