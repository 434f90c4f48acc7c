"""Tests for rank-3 arrays and the outer-iteration stencil application."""

import numpy as np
import pytest

from repro.machine.machine import CM2
from repro.machine.params import MachineParams
from repro.runtime.faults import ResiliencePolicy
from repro.runtime.multidim import (
    CMArray3D,
    DepthTap,
    apply_stencil_3d,
    compile_3d,
    depth_alias,
)
from repro.runtime.stencil_op import apply_stencil
from repro.runtime.strips import StripSchedule
from repro.stencil.offsets import BoundaryMode
from repro.stencil.pattern import (
    Coefficient,
    StencilPattern,
    Tap,
    pattern_from_offsets,
)


@pytest.fixture
def machine():
    return CM2(MachineParams(num_nodes=4))


def laplacian_pattern(lam=0.1):
    """In-plane 5-point part of the 7-point 3-D Laplacian."""
    offsets = [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]
    taps = [
        Tap(
            offset=o,
            coeff=Coefficient.scalar(lam if o != (0, 0) else 1 - 6 * lam),
        )
        for o in offsets
    ]
    return StencilPattern(taps, name="lap5")


def depth_taps(lam=0.1):
    return [
        DepthTap(-1, Coefficient.scalar(lam)),
        DepthTap(+1, Coefficient.scalar(lam)),
    ]


def reference_laplacian_3d(x, lam=0.1, depth_mode="wrap"):
    lamf, cf = np.float32(lam), np.float32(1 - 6 * lam)
    acc = np.zeros_like(x)
    for (dy, dx), c in zip(
        [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)], [lamf, lamf, cf, lamf, lamf]
    ):
        acc = acc + (c * np.roll(x, (-dy, -dx), (0, 1))).astype(np.float32)
    if depth_mode == "wrap":
        below = np.roll(x, 1, 2)
        above = np.roll(x, -1, 2)
    else:
        zeros = np.zeros_like(x[:, :, :1])
        below = np.concatenate([zeros, x[:, :, :-1]], axis=2)
        above = np.concatenate([x[:, :, 1:], zeros], axis=2)
    acc = acc + (lamf * below).astype(np.float32)
    acc = acc + (lamf * above).astype(np.float32)
    return acc


class TestCMArray3D:
    def test_round_trip(self, machine):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((8, 12, 4)).astype(np.float32)
        array = CMArray3D.from_numpy("A", machine, data)
        np.testing.assert_array_equal(array.to_numpy(), data)

    def test_shape_validation(self, machine):
        with pytest.raises(ValueError, match="rank-3"):
            CMArray3D.from_numpy("A", machine, np.zeros((4, 4)))

    def test_depth_validation(self, machine):
        with pytest.raises(ValueError, match="depth"):
            CMArray3D("A", machine, (8, 8, 0))

    def test_slab_access(self, machine):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((8, 8, 3)).astype(np.float32)
        array = CMArray3D.from_numpy("A", machine, data)
        np.testing.assert_array_equal(array.slab(1).to_numpy(), data[:, :, 1])

    def test_a_plane_serves_a_guarded_solo_call(self):
        """A plane is a CMArray on every path: a guarded run with spares
        and checkpoints reads and writes planes like named arrays."""
        machine = CM2(MachineParams(num_nodes=4), spares=1)
        compiled = compile_3d(laplacian_pattern(), (), machine.params)
        data = np.random.default_rng(10).standard_normal((8, 8, 3))
        volume = CMArray3D.from_numpy("V", machine, data.astype(np.float32))
        plain = apply_stencil(compiled, volume.slab(0), None, "P", iterations=4)
        guarded = apply_stencil(
            compiled, volume.slab(0), None, volume.slab(2), iterations=4,
            resilience=ResiliencePolicy(checkpoint_interval=2),
        )
        np.testing.assert_array_equal(
            volume.to_numpy()[:, :, 2], plain.result.to_numpy()
        )
        assert guarded.reconciled

    def test_like(self, machine):
        a = CMArray3D("A", machine, (8, 8, 3))
        b = a.like("B")
        assert b.global_shape == a.global_shape


class TestDepthTap:
    def test_zero_offset_rejected(self):
        with pytest.raises(ValueError, match="in-plane"):
            DepthTap(0, Coefficient.scalar(1.0))

    def test_alias_names(self):
        assert depth_alias(-1) != depth_alias(1)
        assert depth_alias(-2) != depth_alias(-1)


class TestCompile3D:
    def test_no_depth_taps_is_plain_compilation(self, machine):
        compiled = compile_3d(laplacian_pattern(), (), machine.params)
        assert compiled.pattern.extra_terms == ()

    def test_depth_taps_fuse(self, machine):
        compiled = compile_3d(
            laplacian_pattern(), depth_taps(), machine.params
        )
        assert len(compiled.pattern.extra_terms) == 2

    def test_duplicate_depth_offsets_rejected(self, machine):
        with pytest.raises(ValueError, match="duplicate"):
            compile_3d(
                laplacian_pattern(),
                [
                    DepthTap(1, Coefficient.scalar(1.0)),
                    DepthTap(1, Coefficient.scalar(2.0)),
                ],
                machine.params,
            )


class TestApply3D:
    def test_seven_point_laplacian_circular(self, machine):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((8, 12, 5)).astype(np.float32)
        compiled = compile_3d(
            laplacian_pattern(), depth_taps(), machine.params
        )
        X = CMArray3D.from_numpy("X", machine, x)
        run = apply_stencil_3d(compiled, X, {}, "R")
        np.testing.assert_array_equal(
            run.result.to_numpy(), reference_laplacian_3d(x, depth_mode="wrap")
        )

    def test_seven_point_laplacian_fill(self, machine):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((8, 12, 4)).astype(np.float32)
        compiled = compile_3d(
            laplacian_pattern(), depth_taps(), machine.params
        )
        X = CMArray3D.from_numpy("X", machine, x)
        run = apply_stencil_3d(
            compiled,
            X,
            {},
            "R",
            depth_boundary=BoundaryMode.FILL,
        )
        np.testing.assert_array_equal(
            run.result.to_numpy(), reference_laplacian_3d(x, depth_mode="fill")
        )

    def test_plain_2d_pattern_per_slab(self, machine):
        """Without depth taps, each plane is an independent 2-D apply."""
        from repro.baseline.reference import reference_stencil

        pattern = pattern_from_offsets(
            [(-1, 0), (0, 0), (1, 0)], name="column3"
        )
        rng = np.random.default_rng(4)
        x = rng.standard_normal((8, 8, 3)).astype(np.float32)
        coeffs = {
            name: rng.standard_normal((8, 8, 3)).astype(np.float32)
            for name in pattern.coefficient_names()
        }
        compiled = compile_3d(pattern, (), machine.params)
        X = CMArray3D.from_numpy("X", machine, x)
        C = {
            name: CMArray3D.from_numpy(name, machine, data)
            for name, data in coeffs.items()
        }
        run = apply_stencil_3d(compiled, X, C, "R")
        got = run.result.to_numpy()
        for k in range(3):
            expected = reference_stencil(
                pattern,
                x[:, :, k],
                {name: coeffs[name][:, :, k] for name in coeffs},
            )
            np.testing.assert_array_equal(got[:, :, k], expected)

    def test_depth_single_slab_circular_self_reference(self, machine):
        """Depth 1 with circular boundary: the slab is its own neighbor."""
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 8, 1)).astype(np.float32)
        compiled = compile_3d(
            laplacian_pattern(), depth_taps(), machine.params
        )
        X = CMArray3D.from_numpy("X", machine, x)
        run = apply_stencil_3d(compiled, X, {}, "R")
        np.testing.assert_array_equal(
            run.result.to_numpy(), reference_laplacian_3d(x, depth_mode="wrap")
        )

    @pytest.mark.parametrize("depth", [1, 3])
    @pytest.mark.parametrize(
        "boundary", [BoundaryMode.CIRCULAR, BoundaryMode.FILL]
    )
    def test_depth_taps_reaching_past_the_volume(
        self, machine, depth, boundary
    ):
        """A dz=-2 tap reaches past a depth-1 volume and past the near
        edge of a depth-3 one: the depth halo wraps it onto an interior
        plane (more than once around at depth 1) or reads zeros."""
        from repro.baseline.reference import reference_stencil

        taps = [
            DepthTap(-2, Coefficient.scalar(0.25)),
            DepthTap(+1, Coefficient.scalar(0.5)),
        ]
        rng = np.random.default_rng(12)
        x = rng.standard_normal((8, 12, depth)).astype(np.float32)
        compiled = compile_3d(laplacian_pattern(), taps, machine.params)
        X = CMArray3D.from_numpy("X", machine, x)
        run = apply_stencil_3d(compiled, X, {}, "R", depth_boundary=boundary)
        expected = np.empty_like(x)
        for k in range(depth):
            acc = reference_stencil(laplacian_pattern(), x[:, :, k], {})
            for tap in taps:
                plane = np.zeros_like(x[:, :, 0])
                if boundary is BoundaryMode.CIRCULAR:
                    plane = x[:, :, (k + tap.dz) % depth]
                elif 0 <= k + tap.dz < depth:
                    plane = x[:, :, k + tap.dz]
                acc = acc + np.float32(tap.coeff.value) * plane
            expected[:, :, k] = acc
        np.testing.assert_array_equal(run.result.to_numpy(), expected)

    def test_cost_scales_with_depth(self, machine):
        compiled = compile_3d(
            laplacian_pattern(), depth_taps(), machine.params
        )
        shallow = apply_stencil_3d(
            compiled,
            CMArray3D("A", machine, (8, 8, 2)),
            {},
            "R1",
        )
        deep = apply_stencil_3d(
            compiled,
            CMArray3D("B", machine, (8, 8, 6)),
            {},
            "R2",
        )
        assert deep.total_compute_cycles == 3 * shallow.total_compute_cycles
        assert deep.useful_flops == 3 * shallow.useful_flops

    def test_iterations_scale(self, machine):
        compiled = compile_3d(laplacian_pattern(), (), machine.params)
        once = apply_stencil_3d(
            compiled, CMArray3D("A", machine, (8, 8, 2)), {}, "R1"
        )
        many = apply_stencil_3d(
            compiled,
            CMArray3D("B", machine, (8, 8, 2)),
            {},
            "R2",
            iterations=10,
        )
        assert many.total_compute_cycles == 10 * once.total_compute_cycles
        assert many.mflops == pytest.approx(once.mflops)

    def test_a_run_is_one_engine_call(self, machine, monkeypatch):
        """Every plane and iteration ride one engine call: one host call
        and one exchange of ``depth`` messages per iteration."""
        from repro.runtime import multidim

        calls = []
        engine = multidim.run_stencil
        monkeypatch.setattr(
            multidim,
            "run_stencil",
            lambda *args, **kwargs: calls.append(1) or engine(*args, **kwargs),
        )
        compiled = compile_3d(
            laplacian_pattern(), depth_taps(), machine.params
        )
        run = apply_stencil_3d(
            compiled, CMArray3D("A", machine, (8, 8, 5)), {}, "R",
            iterations=3,
        )
        assert len(calls) == 1
        assert (run.batch, run.host_calls, run.num_exchanges) == (5, 3, 15)
        assert run.reconciled

    def test_one_compiled_stencil_serves_two_volumes(self, machine):
        """The depth taps come from the compiled stencil alone: a second
        volume on the same machine reads its own planes, and no run
        leaves a depth name behind in machine storage."""
        rng = np.random.default_rng(9)
        compiled = compile_3d(
            laplacian_pattern(), depth_taps(), machine.params
        )
        for name, result in (("X", "R1"), ("Y", "R2")):
            data = rng.standard_normal((8, 12, 3)).astype(np.float32)
            volume = CMArray3D.from_numpy(name, machine, data)
            run = apply_stencil_3d(compiled, volume, {}, result)
            np.testing.assert_array_equal(
                run.result.to_numpy(), reference_laplacian_3d(data)
            )
            for left in (depth_alias(-1), depth_alias(1), "__zero_slab__"):
                assert machine.storage.lookup(left) is None, left

    @pytest.mark.parametrize(
        "boundary,mode",
        [(BoundaryMode.CIRCULAR, "wrap"), (BoundaryMode.FILL, "fill")],
    )
    def test_iterations_apply_the_stencil_each_time(
        self, machine, boundary, mode
    ):
        """Iteration k+1 reads iteration k's whole 3-D result, so two
        iterations equal two reference applications, bit for bit, and
        charge each pass."""
        rng = np.random.default_rng(8)
        x = rng.standard_normal((8, 12, 3)).astype(np.float32)
        compiled = compile_3d(
            laplacian_pattern(), depth_taps(), machine.params
        )
        X = CMArray3D.from_numpy("X", machine, x)
        once = apply_stencil_3d(
            compiled, X, {}, "R1",
            depth_boundary=boundary,
        )
        twice = apply_stencil_3d(
            compiled, X, {}, "R2",
            depth_boundary=boundary, iterations=2,
        )
        expected = reference_laplacian_3d(
            reference_laplacian_3d(x, depth_mode=mode), depth_mode=mode
        )
        np.testing.assert_array_equal(twice.result.to_numpy(), expected)
        np.testing.assert_array_equal(X.to_numpy(), x)
        assert twice.total_compute_cycles == 2 * once.total_compute_cycles


def assert_exact_equals_fast(runs, expected):
    """Exact bits = fast bits = the reference, equal compute totals, and
    the stepped datapath's pass equals the closed form."""
    for run in runs.values():
        np.testing.assert_array_equal(run.result.to_numpy(), expected)
        compiled = run.compiled
        schedule = StripSchedule.cached(compiled, run.result.subgrid_shape)
        assert run.per_filter[0].pass_cycles == schedule.compute_cycles(
            compiled.params
        )
    assert runs[True].total_compute_cycles == runs[False].total_compute_cycles


class TestExactMode3D:
    @pytest.mark.parametrize("iterations", [1, 2])
    @pytest.mark.parametrize(
        "boundary,mode",
        [(BoundaryMode.CIRCULAR, "wrap"), (BoundaryMode.FILL, "fill")],
    )
    def test_exact_matches_fast_through_the_outer_loop(
        self, boundary, mode, iterations
    ):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, 12, 3)).astype(np.float32)
        expected = x
        for _ in range(iterations):
            expected = reference_laplacian_3d(expected, depth_mode=mode)
        runs = {}
        for exact in (False, True):
            m = CM2(MachineParams(num_nodes=4))
            compiled_m = compile_3d(
                laplacian_pattern(), depth_taps(), m.params
            )
            X = CMArray3D.from_numpy("X", m, x)
            runs[exact] = apply_stencil_3d(
                compiled_m,
                X,
                {},
                "R",
                depth_boundary=boundary,
                iterations=iterations,
                exact=exact,
            )
        assert_exact_equals_fast(runs, expected)

    def test_exact_matches_fast_with_rank3_coefficients(self):
        from repro.baseline.reference import reference_stencil

        pattern = pattern_from_offsets(
            [(-1, 0), (0, 0), (1, 0)], name="column3"
        )
        rng = np.random.default_rng(7)
        x = rng.standard_normal((8, 8, 3)).astype(np.float32)
        coeffs = {
            name: rng.standard_normal((8, 8, 3)).astype(np.float32)
            for name in pattern.coefficient_names()
        }
        expected = x
        for _ in range(2):
            expected = np.stack(
                [
                    reference_stencil(
                        pattern,
                        expected[:, :, k],
                        {name: data[:, :, k] for name, data in coeffs.items()},
                    )
                    for k in range(3)
                ],
                axis=2,
            )
        runs = {}
        for exact in (False, True):
            m = CM2(MachineParams(num_nodes=4))
            C = {
                name: CMArray3D.from_numpy(name, m, data)
                for name, data in coeffs.items()
            }
            runs[exact] = apply_stencil_3d(
                compile_3d(pattern, (), m.params),
                CMArray3D.from_numpy("X", m, x),
                C,
                "R",
                iterations=2,
                exact=exact,
            )
        assert_exact_equals_fast(runs, expected)
