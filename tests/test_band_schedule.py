"""The band schedule: the host's order for unguarded fast runs.

An unguarded, fast call without fused extra terms computes its result
in cache-resident bands of global rows, several iterations per sweep
(``runtime.executor.band_schedule``), instead of one halo exchange and
one tap kernel pass per iteration.  The contract is bit-identity: every
result word (compared as uint32, so NaN payloads count) equals the same
call run guarded with no faults -- through the engine's loop -- and the
iterated ``reference_stencil``, and the run record is the resolved block
list's closed form either way.
"""

import numpy as np
import pytest

from repro.baseline.reference import reference_stencil
from repro.compiler.codegen import ExtraTerm
from repro.compiler.driver import compile_stencil
from repro.compiler.fusion import fuse
from repro.machine.machine import CM2
from repro.machine.params import MachineParams
from repro.runtime import batch, executor
from repro.runtime.batch import CMBatch, apply_stencil_batch
from repro.runtime.cm_array import CMArray, CMArray3D
from repro.runtime.faults import ResiliencePolicy
from repro.runtime.multidim import (
    apply_laplacian27_reference,
    apply_stencil_3d,
    compile_3d,
)
from repro.runtime.stencil_op import apply_stencil
from repro.stencil import gallery
from repro.stencil.offsets import BoundaryMode
from repro.stencil.pattern import Coefficient, StencilPattern, Tap

C, F = BoundaryMode.CIRCULAR, BoundaryMode.FILL
MODES = {"torus": (C, C), "fill": (F, F), "fill-rows": (F, C), "fill-cols": (C, F)}
GUARDED = dict(resilience=ResiliencePolicy())


def gallery_patterns():
    return [
        gallery.cross5(),
        gallery.cross9(),
        gallery.square9(),
        gallery.diamond13(),
        gallery.asymmetric5(),
        gallery.border_demo(),
        gallery.box(2, 3),
        gallery.row(3),
        gallery.column(4),
        gallery.laplacian27_mid(),
    ]


def every_kind_pattern(boundary=(C, C)):
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
        boundary={1: boundary[0], 2: boundary[1]},
        fill_value=1.5,
    )


def variant(pattern, mode):
    rows, cols = MODES[mode]
    return StencilPattern(
        pattern.taps,
        name=f"{pattern.name}_{mode}",
        boundary={1: rows, 2: cols},
        fill_value=1.5,
    )


def bits(array):
    return np.ascontiguousarray(array).view(np.uint32)


def assert_bits_equal(got, want):
    np.testing.assert_array_equal(bits(got), bits(want))


def iterate(pattern, x, coefficients, iterations):
    for _ in range(iterations):
        x = reference_stencil(pattern, x, coefficients)
    return x


def assert_same_record(run, guarded):
    """An unguarded run's totals are the closed form of the block list
    the guarded loop ran (a guard adds its own always-on charges)."""
    assert run.closed_form == guarded.closed_form
    assert (run.host_calls, run.block_depths) == (
        guarded.host_calls,
        guarded.block_depths,
    )
    assert run.per_filter == guarded.per_filter
    assert run.reconciled
    assert run.fault_stats == type(run.fault_stats)()


class Problem:
    """A machine, a source and every coefficient ``patterns`` read."""

    def __init__(self, patterns, shape=(2, 2), subgrid=(8, 8), seed=0, lead=()):
        self.machine = CM2(MachineParams(num_nodes=shape[0] * shape[1]), shape=shape)
        self.global_shape = (shape[0] * subgrid[0], shape[1] * subgrid[1])
        rng = np.random.default_rng(seed)
        self.x = rng.uniform(-1.0, 1.0, lead + self.global_shape).astype(np.float32)
        names = sorted({n for p in patterns for n in p.coefficient_names()})
        self.coefficients = {
            name: rng.uniform(-0.3, 0.3, self.global_shape).astype(np.float32)
            for name in names
        }
        self.arrays = {
            name: CMArray.from_numpy(name, self.machine, data)
            for name, data in self.coefficients.items()
        }

    def solo(self, pattern, iterations, **kwargs):
        compiled = compile_stencil(pattern, self.machine.params)
        source = CMArray.from_numpy("X", self.machine, self.x)
        names = pattern.coefficient_names()
        run = apply_stencil(
            compiled, source, {n: self.arrays[n] for n in names}, "R",
            iterations=iterations, **kwargs,
        )
        return run, run.result.to_numpy()


@pytest.fixture(params=[1, 3], ids=["1-worker", "3-workers"])
def workers(monkeypatch, request):
    """The tap pool at ``request.param`` threads, a pool of this test's
    own."""
    monkeypatch.setattr(executor, "WORKERS", request.param)
    monkeypatch.setattr(executor, "_TAP_POOL", None)
    yield request.param
    if executor._TAP_POOL is not None:
        executor._TAP_POOL.shutdown()


@pytest.fixture
def band_shape(monkeypatch):
    """Force ``(bands, depth)``; returns the setter."""

    def force(bands, depth):
        monkeypatch.setattr(executor, "band_shape", lambda *args: (bands, depth))

    return force


class TestSoloRuns:
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_every_gallery_pattern(self, workers, mode):
        for index, base in enumerate(gallery_patterns()):
            pattern = variant(base, mode)
            problem = Problem([pattern], seed=index)
            run, got = problem.solo(pattern, 5)
            guarded, want = problem.solo(pattern, 5, **GUARDED)
            assert_bits_equal(got, want)
            assert_bits_equal(
                got, iterate(pattern, problem.x, problem.coefficients, 5)
            )
            assert_same_record(run, guarded)

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_every_coefficient_kind(self, workers, mode):
        pattern = every_kind_pattern(MODES[mode])
        problem = Problem([pattern], seed=7)
        _, got = problem.solo(pattern, 3)
        _, want = problem.solo(pattern, 3, **GUARDED)
        assert_bits_equal(got, want)
        assert_bits_equal(got, iterate(pattern, problem.x, problem.coefficients, 3))

    @pytest.mark.parametrize(
        "shape, subgrid",
        [((1, 1), (6, 7)), ((1, 8), (4, 6)), ((8, 1), (6, 4)), ((2, 4), (5, 3))],
        ids=["1x1", "1xN", "Nx1", "2x4"],
    )
    @pytest.mark.parametrize("mode", ["torus", "fill-rows"])
    def test_node_grids(self, workers, shape, subgrid, mode):
        pattern = variant(gallery.diamond13(), mode)
        problem = Problem([pattern], shape=shape, subgrid=subgrid, seed=3)
        _, got = problem.solo(pattern, 4)
        _, want = problem.solo(pattern, 4, **GUARDED)
        assert_bits_equal(got, want)
        assert_bits_equal(got, iterate(pattern, problem.x, problem.coefficients, 4))

    @pytest.mark.parametrize(
        "bands, depth",
        [(8, 1), (4, 3), (3, 2), (2, 4), (8, 7), (1, 3)],
        ids=lambda v: str(v),
    )
    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_forced_bands_and_sweeps(self, workers, band_shape, bands, depth, mode):
        """On 8 global rows: ghost zones deeper than a subgrid and than
        a band, bands of unequal height, one band for the whole array,
        one-row bands, and 7 iterations -- not a multiple of the sweep
        depth -- so later sweeps read their ghost rows from the
        pre-sweep snapshot."""
        band_shape(bands, depth)
        pattern = variant(gallery.cross9(), mode)
        problem = Problem([pattern], shape=(2, 2), subgrid=(4, 6), seed=depth)
        _, got = problem.solo(pattern, 7)
        assert_bits_equal(got, iterate(pattern, problem.x, problem.coefficients, 7))

    def test_nan_and_inf_inputs(self, workers):
        pattern = variant(gallery.square9(), "fill")
        problem = Problem([pattern], seed=11)
        problem.x[3, 5] = np.nan
        problem.x[9, 0] = np.inf
        problem.x[0, 15] = -np.inf
        problem.x[12, 12] = np.float32(3e38)  # overflows to inf
        problem.arrays["C5"].stacked[1, 0, 2, 3] = np.nan
        problem.coefficients["C5"] = problem.arrays["C5"].to_numpy()
        # The guarded run steps down to the exact rung, whose datapath
        # and the reference warn on the NaNs; the band schedule does not.
        with np.errstate(invalid="ignore", over="ignore"):
            _, got = problem.solo(pattern, 3)
            _, want = problem.solo(pattern, 3, **GUARDED)
            oracle = iterate(pattern, problem.x, problem.coefficients, 3)
        assert_bits_equal(got, want)
        assert_bits_equal(got, oracle)

    @pytest.mark.parametrize("workers", [1, 2, 3, 5, 6, 12])
    def test_band_shape_rule(self, monkeypatch, workers):
        """The closed-form rule: bands whose heights differ by at most a
        row, the same number per worker (or one row each), ghost rows at
        most half a band on each side, and every band of more than one
        row within both budgets: its first sub-iteration's rows, ghost
        rows included, within ``CALL_WORDS`` a call, and its tiles,
        ``depth`` pads of ghost rows included, within ``KEPT_WORDS``.
        A row past the call budget gets bands of one row."""
        monkeypatch.setattr(executor, "WORKERS", workers)
        call_words = executor.CALL_WORDS
        perfbench = {
            # iterate-256: cross9 ARRAY, 256 nodes of 32x32.
            (2, 516, 12 * 516, 512, 4): (2, 4),
            # batch-groups: 8 grids, 6 filters, 13 coefficients, 16x16.
            (2, 8 * 260, 37 * 260, 256, 4): (4, 4),
        }
        for pad, row_words, tile_words, height, iterations in [
            *perfbench,
            (2, 1028, 12 * 1028, 1024, 32),
            (2, 2052, 12 * 2052, 1024, 32),
            (3, 200 * 518, 600 * 518, 16, 5),
            (1, call_words + 1, 3 * (call_words + 1), 40, 3),
            (0, 5 * 8, 5 * 8, 8, 9),
            (1, 3 * 10, 3 * 10, 3, 2),
            (1, 3 * 10, 3 * 10, 37, 6),
        ]:
            bands, depth = executor.band_shape(
                pad, row_words, tile_words, height, iterations
            )
            bounds = executor.band_bounds(bands, height)
            sizes = [stop - start for start, stop in bounds]
            assert len(bounds) == bands and 1 <= bands <= height
            assert bounds[0][0] == 0 and bounds[-1][1] == height
            assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
            assert 1 <= min(sizes) and max(sizes) - min(sizes) <= 1
            assert bands % workers == 0 or bands == height
            call = (max(sizes) + 2 * (depth - 1) * pad) * row_words
            held = (max(sizes) + 2 * depth * pad) * tile_words
            assert max(sizes) == 1 or (
                call <= call_words and held <= executor.KEPT_WORDS
            )
            if row_words > call_words:
                assert max(sizes) == 1
            assert 1 <= depth <= iterations
            assert depth == 1 or 2 * depth * pad <= min(sizes)
            shape = perfbench.get((pad, row_words, tile_words, height, iterations))
            if shape is not None and workers <= 2:
                assert (bands, depth) == shape


class TestFixedPoints:
    """A band whose first sub-iteration leaves every row it computed
    unchanged skips the sweep's other sub-iterations, and a sweep that
    is not the run's last stops a filter that left every band's rows
    unchanged."""

    @staticmethod
    def bands_run(monkeypatch, c1_last, iterations=6):
        """Returns the bands run and the sub-iterations computed."""
        calls, chains = [], []
        real_band, real_chain = executor._run_band, executor._chain

        def counted(sweep, k, start, stop):
            calls.append(k)
            return real_band(sweep, k, start, stop)

        def chain(*args):
            chains.append(1)
            return real_chain(*args)

        monkeypatch.setattr(executor, "_run_band", counted)
        monkeypatch.setattr(executor, "_chain", chain)
        monkeypatch.setattr(executor, "band_shape", lambda *args: (4, 2))
        pattern = StencilPattern(
            [
                Tap(offset=(0, 0), coeff=Coefficient.array("C1")),
                Tap(offset=(1, 1), coeff=Coefficient.array("C2")),
            ],
            name="identity",
        )
        problem = Problem([pattern], seed=15)
        # 0.0 + 1.0 * -0.0 is +0.0: the first iterate differs from the
        # source in bits, not in value.
        problem.x[2, 3] = -0.0
        problem.coefficients["C1"][...] = 1.0
        problem.coefficients["C1"][-1, -1] = c1_last
        problem.coefficients["C2"][...] = 0.0
        for name in ("C1", "C2"):
            problem.arrays[name].set(problem.coefficients[name])
        _, got = problem.solo(pattern, iterations)
        assert_bits_equal(
            got, iterate(pattern, problem.x, problem.coefficients, iterations)
        )
        return len(calls), len(chains)

    def test_a_fixed_point_stops_after_its_first_sub_iteration(
        self, monkeypatch
    ):
        # 16 global rows in bands of 4: one sweep, one sub-iteration each.
        assert self.bands_run(monkeypatch, 1.0) == (4, 4)

    def test_a_change_in_the_last_row_is_not_a_fixed_point(self, monkeypatch):
        # Three sweeps of 2.  Bands 1 and 2 (ghost rows included) stay
        # unchanged and skip their second sub-iteration; bands 0 and 3
        # see the last row, band 0 through its wrapped ghost rows.
        assert self.bands_run(monkeypatch, 0.5) == (3 * 4, 3 * (2 + 1 + 1 + 2))


class TestBatchedRuns:
    def test_b_by_f_mixed_pads_in_one_group(self, workers):
        filters = [
            gallery.cross5(),  # pad 1
            gallery.cross9(),  # pad 2
            every_kind_pattern(),  # pad 2, every coefficient kind
            gallery.row(3),  # pad 1, east/west only
            variant(gallery.diamond13(), "fill"),  # the other group
            variant(gallery.square9(), "fill-cols"),
        ]
        problem = Problem(filters, shape=(2, 4), subgrid=(6, 4), seed=5, lead=(3,))
        compiled = [compile_stencil(p, problem.machine.params) for p in filters]
        sources = CMBatch.from_numpy("X", problem.machine, problem.x)

        def run(**kwargs):
            run = apply_stencil_batch(
                compiled, sources, problem.arrays, iterations=5, **kwargs
            )
            return run, run.result.to_numpy()

        fast, got = run()
        guarded, want = run(**GUARDED)
        assert_bits_equal(got, want)
        assert_same_record(fast, guarded)
        for b in range(3):
            for f, pattern in enumerate(filters):
                assert_bits_equal(
                    got[b, f],
                    iterate(pattern, problem.x[b], problem.coefficients, 5),
                )

    def test_batch_of_b_with_auto_depths(self, workers):
        pattern = gallery.cross5()
        problem = Problem([pattern], shape=(2, 2), subgrid=(16, 16), seed=6, lead=(4,))
        compiled = compile_stencil(pattern, problem.machine.params)
        sources = CMBatch.from_numpy("X", problem.machine, problem.x)
        fast = apply_stencil_batch(
            [compiled], sources, problem.arrays, iterations=8, block_depth="auto"
        )
        guarded = apply_stencil_batch(
            [compiled], sources, problem.arrays, iterations=8,
            block_depth="auto", **GUARDED,
        )
        assert_bits_equal(fast.result.to_numpy(), guarded.result.to_numpy())
        assert_same_record(fast, guarded)


class TestRankThree:
    @pytest.mark.parametrize("mode", ["torus", "fill"])
    def test_planes_without_depth_taps(self, workers, mode):
        pattern = variant(gallery.square9(), mode)
        machine = CM2(MachineParams(num_nodes=4))
        rng = np.random.default_rng(8)
        x = rng.uniform(-1.0, 1.0, (8, 12, 3)).astype(np.float32)
        coeffs = {
            name: rng.uniform(-0.3, 0.3, (8, 12, 3)).astype(np.float32)
            for name in pattern.coefficient_names()
        }
        compiled = compile_3d(pattern, (), machine.params)
        source = CMArray3D.from_numpy("X", machine, x)
        arrays = {
            name: CMArray3D.from_numpy(name, machine, data)
            for name, data in coeffs.items()
        }
        got = apply_stencil_3d(compiled, source, arrays, "R", iterations=3)
        exact = apply_stencil_3d(
            compiled, source, arrays, "E", iterations=3, exact=True
        )
        assert_bits_equal(got.result.to_numpy(), exact.result.to_numpy())
        for k in range(3):
            assert_bits_equal(
                got.result.to_numpy()[:, :, k],
                iterate(
                    pattern, x[:, :, k],
                    {n: c[:, :, k] for n, c in coeffs.items()}, 3,
                ),
            )


class TestRouting:
    @staticmethod
    def counted(monkeypatch):
        calls = []
        real = batch.band_schedule

        def band_schedule(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(batch, "band_schedule", band_schedule)
        return calls

    def test_one_condition(self, monkeypatch):
        """Only an unguarded, fast call without fused terms takes the
        band schedule; guarded, exact and fused calls run the loop."""
        calls = self.counted(monkeypatch)
        pattern = gallery.cross5()
        problem = Problem([pattern], seed=9)
        problem.solo(pattern, 2)
        assert len(calls) == 1
        problem.solo(pattern, 2, **GUARDED)
        problem.solo(pattern, 2, exact=True)
        problem.solo(pattern, 2, block_depth=2, **GUARDED)
        assert len(calls) == 1

    def test_fused_in_place_call_runs_the_loop(self, monkeypatch):
        """The RS603 in-place update ``U = stencil(X) + CU * U``: fused,
        so it runs the loop, bit-identical guarded or not."""
        calls = self.counted(monkeypatch)
        base = gallery.cross5()
        machine = CM2(MachineParams(num_nodes=4))
        fused = fuse(
            base, [ExtraTerm(source="U", coeff=Coefficient.array("CU"))],
            machine.params,
        )
        rng = np.random.default_rng(10)
        host = {
            name: rng.uniform(-1.0, 1.0, (16, 24)).astype(np.float32)
            for name in ("X", "U", *fused.pattern.coefficient_names())
        }
        results = []
        for kwargs in ({}, GUARDED):
            arrays = {n: CMArray.from_numpy(n, machine, d) for n, d in host.items()}
            coeffs = {n: arrays[n] for n in fused.pattern.coefficient_names()}
            apply_stencil(
                fused, arrays["X"], coeffs, arrays["U"], iterations=3, **kwargs
            )
            results.append(arrays["U"].to_numpy())
        assert not calls
        assert_bits_equal(results[0], results[1])
        want, u = host["X"], host["U"]
        for _ in range(3):
            want = reference_stencil(
                base, want, {n: host[n] for n in base.coefficient_names()}
            )
            u = (want + (host["CU"] * u).astype(np.float32)).astype(np.float32)
            want = u
        assert_bits_equal(results[0], want)


class TestStorage:
    def test_an_unguarded_run_stores_only_its_result(self):
        pattern = gallery.cross9()
        problem = Problem([pattern], seed=12)
        CMArray.from_numpy("X", problem.machine, problem.x)
        storage = problem.machine.storage
        before = {name for name, _ in storage.distinct(scratch=True)}
        problem.solo(pattern, 6, block_depth="auto")
        after = {name for name, _ in storage.distinct(scratch=True)}
        assert after - before == {"R"}

    def test_a_batched_run_stores_only_its_result(self):
        filters = [gallery.cross5(), variant(gallery.square9(), "fill")]
        problem = Problem(filters, seed=13, lead=(2,))
        compiled = [compile_stencil(p, problem.machine.params) for p in filters]
        storage = problem.machine.storage
        sources = [
            CMArray.from_numpy(f"X{b}", problem.machine, problem.x[b])
            for b in range(2)
        ]
        before = {name for name, _ in storage.distinct(scratch=True)}
        run = apply_stencil_batch(compiled, sources, problem.arrays, iterations=3)
        after = {name for name, _ in storage.distinct(scratch=True)}
        # A list of sources is staged into one batched scratch stack.
        assert after - before == {run.result.name, "__batch_source__"}

    def test_plane_view_runs_leave_no_halo_stacks(self):
        """The plane-by-plane 27-point Laplacian runs solo calls on plane
        views of the volume; none leaves a halo stack behind."""
        machine = CM2(MachineParams(num_nodes=4))
        rng = np.random.default_rng(14)
        volume = CMArray3D.from_numpy(
            "V", machine, rng.standard_normal((8, 8, 3)).astype(np.float32)
        )
        apply_laplacian27_reference(volume)
        names = {name for name, _ in machine.storage.distinct(scratch=True)}
        assert names == {"V", "LAP27", "__lap27_ref__"}

    def test_band_scratch_holds_coefficient_tiles_within_kept_words(
        self, monkeypatch
    ):
        """A band's tiles, coefficient tiles included, stay within
        ``KEPT_WORDS``: a pattern that reads 25 ARRAY coefficients gets
        shorter bands, not larger tiles."""
        pattern = gallery.box(5, 5)
        problem = Problem([pattern], subgrid=(16, 16), seed=17)
        wide = 32 + 2 * 2
        kept = 16 * (3 + 25) * wide
        monkeypatch.setattr(executor, "WORKERS", 1)
        monkeypatch.setattr(executor, "KEPT_WORDS", kept)
        sizes, real = [], executor._words

        def words(n):
            sizes.append(n)
            return real(n)

        monkeypatch.setattr(executor, "_words", words)
        _, got = problem.solo(pattern, 3)
        # Two sweeps (depth 2, then 1) of four 8-row bands.
        assert len(sizes) == 8
        assert max(sizes) <= kept
        assert_bits_equal(got, iterate(pattern, problem.x, problem.coefficients, 3))

    def test_a_thread_keeps_at_most_kept_words(self, monkeypatch):
        """A band larger than the cap runs on words of its own, which
        the thread drops; a smaller one keeps its scratch for reuse."""
        pattern = gallery.cross9()
        problem = Problem([pattern], seed=16)
        monkeypatch.setattr(executor, "WORKERS", 1)
        monkeypatch.setattr(executor._BUFFERS, "words", None, raising=False)
        monkeypatch.setattr(executor, "KEPT_WORDS", 64)
        _, got = problem.solo(pattern, 3)
        assert executor._BUFFERS.words is None
        monkeypatch.setattr(executor, "KEPT_WORDS", 1 << 20)
        _, again = problem.solo(pattern, 3)
        assert 64 < executor._BUFFERS.words.size <= 1 << 20
        assert_bits_equal(got, again)
        assert_bits_equal(got, iterate(pattern, problem.x, problem.coefficients, 3))
