"""The Gordon Bell seismic kernel: both main-loop formulations.

Reproduces the structure of the code that won the 1990 Gordon Bell
honorable mention: a fourth-order finite-difference wave propagation
through a synthetic layered medium, driven by a Ricker wavelet, with the
nine-point-cross-plus-tenth-term kernel run both ways --

* the straightforward loop (stencil, add term, two copies): the paper's
  11.62-Gflops version;
* the loop unrolled by three so the time levels exchange roles with no
  copying: the paper's 14.88-Gflops version.

The wavefields are bit-identical; only the rates differ.

Run:  python examples/seismic_model.py
"""

import numpy as np

from repro import CM2, MachineParams
from repro.analysis.timing import extrapolate_mflops
from repro.apps import SeismicModel, ricker_wavelet


def ascii_snapshot(field: np.ndarray, width: int = 64) -> str:
    """Coarse ASCII rendering of the wavefield."""
    rows, cols = field.shape
    step_r = max(1, rows // 24)
    step_c = max(1, cols // width)
    sample = field[::step_r, ::step_c]
    peak = np.abs(sample).max() or 1.0
    ramp = " .:-=+*#%@"
    lines = []
    for row in sample:
        indices = np.minimum(
            (np.abs(row) / peak * (len(ramp) - 1)).astype(int),
            len(ramp) - 1,
        )
        lines.append("".join(ramp[i] for i in indices))
    return "\n".join(lines)


def run_version(name, runner_name, machine, steps, wavelet):
    model = SeismicModel(
        machine,
        (256, 512),
        dt=0.001,
        dx=10.0,
        source=(32, 256),
    )
    model.set_initial_pulse(sigma=3.0)
    runner = getattr(model, runner_name)
    timing = runner(steps, wavelet)
    rate_16 = timing.mflops
    rate_full = extrapolate_mflops(rate_16, machine.num_nodes, 2048) / 1e3
    print(
        f"{name:<22} {timing.steps} steps  "
        f"{timing.elapsed_seconds:8.3f} s  {rate_16:7.1f} Mflops on "
        f"{machine.num_nodes} nodes  -> {rate_full:5.2f} Gflops on 2,048"
    )
    return model, timing


def main():
    params = MachineParams(num_nodes=16)
    steps = 60
    wavelet = ricker_wavelet(steps, 0.001)

    print("Gordon Bell seismic kernel: 9-point cross + tenth time term")
    print(f"medium: synthetic layered velocity model, Courant-limited dt")
    print()

    copy_model, copy_timing = run_version(
        "copy loop (1989 style)", "run_copy_loop", CM2(params), steps, wavelet
    )
    unrolled_model, unrolled_timing = run_version(
        "3x-unrolled loop", "run_unrolled_loop", CM2(params), steps, wavelet
    )
    fused_model, fused_timing = run_version(
        "fused 10-term loop", "run_fused_loop", CM2(params), steps, wavelet
    )
    print()
    identical = np.array_equal(
        copy_model.wavefield(), unrolled_model.wavefield()
    ) and np.array_equal(
        unrolled_model.wavefield(), fused_model.wavefield()
    )
    print(f"wavefields bit-identical across all three loops: {identical}")
    speedup = unrolled_timing.gflops / copy_timing.gflops
    print(
        f"unrolled / copy speedup: {speedup:.2f}x "
        f"(paper: 14.88 / 11.62 = 1.28x)"
    )
    fused_gain = fused_timing.gflops / unrolled_timing.gflops
    print(
        f"fused / unrolled gain:  {fused_gain:.2f}x "
        f"(the paper's 'future versions' fusion, implemented)"
    )
    print()
    print("wavefield snapshot (|amplitude|):")
    print(ascii_snapshot(unrolled_model.wavefield()))
    return identical


if __name__ == "__main__":
    raise SystemExit(0 if main() else 1)
