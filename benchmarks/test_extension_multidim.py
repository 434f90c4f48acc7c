"""EXT-3D: the run-time library's multidimensional outer loop, measured.

The paper's run-time library "provides the outer loop structure for
strip-mining and for handling multidimensional arrays" (section 1).
The bench runs the 7-point 3-D Laplacian as one engine call over the
volume's depth-lead stack and checks the outer loop's cost structure:
cycles and flops linear in depth, and cheaper with the depth taps fused
into the microcode loop than with separate rank-3 elementwise passes.
"""

import numpy as np
import pytest

from conftest import emit, make_machine
from repro.machine.params import MachineParams
from repro.runtime.cm_array import CMArray
from repro.runtime.elementwise import add_scaled
from repro.runtime.multidim import (
    CMArray3D,
    DepthTap,
    apply_stencil_3d,
    compile_3d,
)
from repro.stencil.pattern import Coefficient, StencilPattern, Tap

LAM = 0.1


def laplacian_parts():
    offsets = [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]
    taps = [
        Tap(
            offset=o,
            coeff=Coefficient.scalar(LAM if o != (0, 0) else 1 - 6 * LAM),
        )
        for o in offsets
    ]
    pattern = StencilPattern(taps, name="lap7_inplane")
    depth = [
        DepthTap(-1, Coefficient.scalar(LAM)),
        DepthTap(+1, Coefficient.scalar(LAM)),
    ]
    return pattern, depth


def test_outer_loop_scales_linearly_in_depth(benchmark):
    def sweep():
        machine = make_machine(16)
        pattern, depth_taps = laplacian_parts()
        compiled = compile_3d(pattern, depth_taps, machine.params)
        out = {}
        for depth in (4, 8, 16):
            source = CMArray3D("X", machine, (64, 64, depth))
            run = apply_stencil_3d(compiled, source, {}, f"R{depth}")
            out[depth] = run
        return out

    runs = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for depth, run in runs.items():
        emit(
            benchmark, f"depth {depth} compute cycles", run.total_compute_cycles
        )
    assert runs[8].total_compute_cycles == 2 * runs[4].total_compute_cycles
    assert runs[16].total_compute_cycles == 4 * runs[4].total_compute_cycles
    assert runs[16].useful_flops == 4 * runs[4].useful_flops


def _compare_at(global_plane, depth=4, separate_widths=(8, 4, 2, 1)):
    """(fused seconds, separate-pass seconds) per 3-D apply.

    Both 3-D runs issue one host call per machine pass, so the separate
    adds are priced like for like: one elementwise call per depth
    offset over the whole volume, as a CM Fortran rank-3 statement
    would be -- its cycles times the depth, one host issue."""
    from repro.compiler.plan import compile_pattern

    pattern, depth_taps = laplacian_parts()

    machine = make_machine(16)
    fused_compiled = compile_3d(pattern, depth_taps, machine.params)
    source = CMArray3D("X", machine, (*global_plane, depth))
    fused = apply_stencil_3d(fused_compiled, source, {}, "RF")
    fused_seconds = fused.elapsed_seconds

    machine2 = make_machine(16)
    params = machine2.params
    plain_compiled = compile_pattern(pattern, params, widths=separate_widths)
    source2 = CMArray3D("X", machine2, (*global_plane, depth))
    plain = apply_stencil_3d(plain_compiled, source2, {}, "RP")
    lam_page = CMArray.from_numpy(
        "LAMPAGE",
        machine2,
        np.full(global_plane, LAM, dtype=np.float32),
    )
    separate_seconds = plain.elapsed_seconds
    result3 = CMArray3D("RSEP", machine2, (*global_plane, depth))
    for dz in (-1, +1):
        planes = np.roll(source2.to_numpy(), -dz, axis=2)  # X[:, :, k + dz]
        shifted = CMArray3D.from_numpy(f"X{dz:+d}", machine2, planes)
        # One plane's cycles per call: the rank-3 statement runs depth of them.
        term = add_scaled(result3, result3, lam_page, shifted, params)
        separate_seconds += params.seconds(depth * term.cycles) + term.host_seconds
    return fused_seconds, separate_seconds


def test_fusion_width_matched_always_wins(benchmark):
    """With the strip width held equal, fusing the depth taps into the
    multiply-add chains beats separate read-modify-write passes by
    ~1.2x at every size: the pure pass-elimination effect."""

    def sweep():
        out = {}
        for label, plane in (
            ("16x16 subgrids", (64, 64)),
            ("64x64 subgrids", (256, 256)),
        ):
            fused, _ = _compare_at(plane)
            _, separate_w4 = _compare_at(plane, separate_widths=(4, 2, 1))
            out[label] = separate_w4 / fused
        return out

    advantages = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    for label, advantage in advantages.items():
        emit(benchmark, f"{label} width-matched advantage", round(advantage, 2))
        assert advantage > 1.15


def test_fusion_crossover_against_best_width(benchmark):
    """Against the *unfused* compilation at its best width (8), fusion
    pays a real price: the two extra registers per result cost this
    pattern its width-8 plan.  At small subgrids the halved width loses;
    at production subgrids the eliminated passes win anyway -- the same
    register economy that governs the rest of the compiler."""

    def sweep():
        return {
            "small (16x16 subgrids)": _compare_at((64, 64)),
            "large (256x256 subgrids)": _compare_at((1024, 1024)),
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    advantages = {}
    for label, (fused_seconds, separate_seconds) in results.items():
        advantage = separate_seconds / fused_seconds
        advantages[label] = advantage
        emit(benchmark, f"{label} fusion advantage", round(advantage, 3))
    assert advantages["small (16x16 subgrids)"] < 1.0
    assert advantages["large (256x256 subgrids)"] > 1.0
