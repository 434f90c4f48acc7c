"""The Gordon Bell finite-difference seismic model (paper section 7).

"The computation in the code that won the Gordon Bell prize consisted of
a nine-point cross stencil plus an additional term from two time steps
before the current one.  This tenth term was added in separately."

Physics: the 2-D acoustic wave equation with a fourth-order spatial
discretization, time-stepped by leapfrog::

    P(t+1) = S(P(t)) + C10 * P(t-1)

where ``S`` is the 9-point (radius-2) cross whose coefficient arrays
encode ``2 - 5*lam(x)`` at the center and the classic fourth-order
Laplacian weights ``(4/3) lam`` and ``(-1/12) lam`` on the arms, with
``lam = (v * dt / dx)**2`` from the velocity model, and ``C10 = -1``.

Mobil Oil's production velocity models are not available, so the model
ships a synthetic layered medium (the standard test configuration for
such kernels); the code path exercised is identical.

Both of the paper's main-loop formulations are implemented:

* :meth:`SeismicModel.run_copy_loop` -- stencil, add the tenth term, then
  two whole-array copies to shift the time-step data (11.62 Gflops in
  the paper);
* :meth:`SeismicModel.run_unrolled_loop` -- the main loop unrolled by
  three so the three time-level arrays exchange roles with no copying
  (14.88 Gflops in the paper).

The two produce bit-identical wavefields; only the time accounting
differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..compiler.driver import compile_stencil
from ..compiler.fusion import fuse
from ..compiler.plan import CompiledStencil
from ..stencil.pattern import Coefficient, ExtraTerm
from ..machine.machine import CM2
from ..machine.params import MachineParams
from ..runtime.cm_array import CMArray
from ..runtime.elementwise import add_scaled, copy_array
from ..runtime.stencil_op import apply_stencil
from ..stencil import gallery

#: Fourth-order central-difference weights for the second derivative,
#: offsets -2..+2, already divided by dx**2 (dx is folded into lam).
FD4_WEIGHTS = (-1.0 / 12.0, 4.0 / 3.0, -5.0 / 2.0, 4.0 / 3.0, -1.0 / 12.0)


def layered_velocity(
    shape: Tuple[int, int],
    *,
    layers: Tuple[float, ...] = (1500.0, 2200.0, 3000.0, 4000.0),
) -> np.ndarray:
    """A synthetic layered velocity model (m/s), flat horizontal layers."""
    rows, cols = shape
    model = np.empty(shape, dtype=np.float32)
    band = max(1, rows // len(layers))
    for i in range(rows):
        model[i, :] = layers[min(i // band, len(layers) - 1)]
    return model


def ricker_wavelet(num_steps: int, dt: float, peak_hz: float = 12.0) -> np.ndarray:
    """A Ricker source wavelet, the standard seismic source signature."""
    t = np.arange(num_steps, dtype=np.float64) * dt - 1.0 / peak_hz
    arg = (np.pi * peak_hz * t) ** 2
    return ((1.0 - 2.0 * arg) * np.exp(-arg)).astype(np.float32)


@dataclass
class SeismicTiming:
    """Accumulated time/flop accounting over a run."""

    steps: int = 0
    machine_seconds: float = 0.0
    host_seconds: float = 0.0
    useful_flops: int = 0

    @property
    def elapsed_seconds(self) -> float:
        return self.machine_seconds + self.host_seconds

    @property
    def gflops(self) -> float:
        return self.useful_flops / self.elapsed_seconds / 1e9

    @property
    def mflops(self) -> float:
        return self.gflops * 1e3


class SeismicModel:
    """The seismic kernel on the simulated machine.

    Args:
        machine: the CM-2 to run on.
        global_shape: wavefield dimensions (must divide over the node grid).
        velocity: velocity model (m/s); defaults to the layered medium.
        dt: time step (s).
        dx: grid spacing (m).
        source: (row, col) of the source injection point, or None.
    """

    def __init__(
        self,
        machine: CM2,
        global_shape: Tuple[int, int],
        *,
        velocity: Optional[np.ndarray] = None,
        dt: float = 0.001,
        dx: float = 10.0,
        source: Optional[Tuple[int, int]] = None,
    ) -> None:
        self.machine = machine
        self.global_shape = global_shape
        self.dt = dt
        self.dx = dx
        if velocity is None:
            velocity = layered_velocity(global_shape)
        if tuple(velocity.shape) != tuple(global_shape):
            raise ValueError(
                f"velocity shape {velocity.shape} != wavefield {global_shape}"
            )
        lam = np.asarray(velocity, dtype=np.float64) * dt / dx
        self.courant = float(lam.max())
        if self.courant > 0.60:
            raise ValueError(
                f"unstable configuration: Courant number {self.courant:.3f} "
                "exceeds the fourth-order leapfrog limit (~0.6); reduce dt"
            )
        self.pattern = gallery.cross9()
        self.compiled: CompiledStencil = compile_stencil(
            self.pattern, machine.params
        )
        self.coefficients = self._build_coefficients(lam * lam)
        self.c10 = CMArray.from_numpy(
            "C10", machine, np.full(global_shape, -1.0, dtype=np.float32)
        )
        # Three time levels; roles rotate.
        self.fields: List[CMArray] = [
            CMArray(name, machine, global_shape) for name in ("P0", "P1", "P2")
        ]
        self._scratch = CMArray("PSCRATCH", machine, global_shape)
        self.source = source
        self.timing = SeismicTiming()
        #: index of the current time level within ``fields``
        self._current = 1
        self._previous = 0
        #: receiver positions (row, col) sampled after every step
        self.receivers: List[Tuple[int, int]] = []
        #: recorded traces, one list of samples per receiver
        self.seismogram: List[List[float]] = []

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def _build_coefficients(self, lam2: np.ndarray) -> Dict[str, CMArray]:
        """Coefficient arrays in the cross9 tap order.

        Tap order (gallery.cross): (-2,0), (-1,0), (0,-2), (0,-1), (0,0),
        (0,+1), (0,+2), (+1,0), (+2,0) named C1..C9.
        """
        lam2 = lam2.astype(np.float64)
        w_m2, w_m1, w_0, w_p1, w_p2 = FD4_WEIGHTS
        arrays = {
            "C1": w_m2 * lam2,
            "C2": w_m1 * lam2,
            "C3": w_m2 * lam2,
            "C4": w_m1 * lam2,
            "C5": 2.0 + 2.0 * w_0 * lam2,  # 2 - 5*lam2: time + both axes
            "C6": w_p1 * lam2,
            "C7": w_p2 * lam2,
            "C8": w_p1 * lam2,
            "C9": w_p2 * lam2,
        }
        return {
            name: CMArray.from_numpy(
                name, self.machine, values.astype(np.float32)
            )
            for name, values in arrays.items()
        }

    def inject_source(self, amplitude: float) -> None:
        """Add a source sample at the injection point of the current field."""
        if self.source is None:
            return
        row, col = self.source
        field = self.fields[self._current]
        sr, sc = field.decomposition.subgrid_shape
        self.machine.stacked(field.name)[
            row // sr, col // sc, row % sr, col % sc
        ] += np.float32(amplitude)

    def place_receivers(self, positions: Sequence[Tuple[int, int]]) -> None:
        """Install a receiver line: the wavefield is sampled at these
        points after every time step, building a seismogram."""
        rows, cols = self.global_shape
        for (r, c) in positions:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"receiver ({r}, {c}) outside the grid")
        self.receivers = list(positions)
        self.seismogram = [[] for _ in self.receivers]

    def _sample_receivers(self, field_index: int) -> None:
        if not self.receivers:
            return
        field = self.fields[field_index]
        sr, sc = field.decomposition.subgrid_shape
        stack = self.machine.stacked(field.name)
        for trace, (r, c) in zip(self.seismogram, self.receivers):
            trace.append(float(stack[r // sr, c // sc, r % sr, c % sc]))

    def seismogram_array(self) -> np.ndarray:
        """The recorded traces as a (receivers, samples) array."""
        return np.array(self.seismogram, dtype=np.float32)

    def set_initial_pulse(self, *, sigma: float = 4.0, amplitude: float = 1.0) -> None:
        """A Gaussian initial condition (an alternative to a wavelet source)."""
        rows, cols = self.global_shape
        center = self.source or (rows // 2, cols // 2)
        yy, xx = np.mgrid[0:rows, 0:cols]
        pulse = amplitude * np.exp(
            -((yy - center[0]) ** 2 + (xx - center[1]) ** 2) / (2 * sigma**2)
        )
        self.fields[self._previous].set(pulse.astype(np.float32))
        self.fields[self._current].set(pulse.astype(np.float32))

    # ------------------------------------------------------------------
    # The two main-loop formulations
    # ------------------------------------------------------------------

    def _kernel(
        self, current: CMArray, previous: CMArray, out: CMArray
    ) -> None:
        """out = cross9(current) + C10 * previous, with accounting."""
        params = self.machine.params
        run = apply_stencil(
            self.compiled, current, self.coefficients, self._scratch
        )
        term = add_scaled(out, self._scratch, self.c10, previous, params)
        self.timing.steps += 1
        self.timing.machine_seconds += (
            run.machine_seconds_per_iteration + params.seconds(term.cycles)
        )
        self.timing.host_seconds += (
            run.host_seconds_per_iteration + term.host_seconds
        )
        points = self.global_shape[0] * self.global_shape[1]
        self.timing.useful_flops += points * (
            self.pattern.useful_flops_per_point() + 2
        )

    def run_copy_loop(self, steps: int, wavelet: Optional[np.ndarray] = None) -> SeismicTiming:
        """The straightforward main loop: kernel, then two copies to
        shift the time-step data (the paper's 11.62-Gflops version)."""
        params = self.machine.params
        p_prev, p_cur, p_new = self.fields
        for step in range(steps):
            if wavelet is not None and step < len(wavelet):
                self.inject_source(float(wavelet[step]))
            self._kernel(p_cur, p_prev, p_new)
            for move in (
                copy_array(p_prev, p_cur, params),
                copy_array(p_cur, p_new, params),
            ):
                self.timing.machine_seconds += params.seconds(move.cycles)
                self.timing.host_seconds += move.host_seconds
            self._sample_receivers(1)
        self._current, self._previous = 1, 0
        return self.timing

    def run_unrolled_loop(self, steps: int, wavelet: Optional[np.ndarray] = None) -> SeismicTiming:
        """The loop unrolled by three "so that the three variables could
        exchange roles without any need to copy data from place to
        place" (the paper's 14.88-Gflops version)."""
        roles = [0, 1, 2]  # previous, current, new indices into fields
        for step in range(steps):
            if wavelet is not None and step < len(wavelet):
                self._current = roles[1]
                self.inject_source(float(wavelet[step]))
            prev_i, cur_i, new_i = roles
            self._kernel(self.fields[cur_i], self.fields[prev_i], self.fields[new_i])
            self._sample_receivers(new_i)
            roles = [cur_i, new_i, prev_i]
        self._previous, self._current = roles[0], roles[1]
        return self.timing

    # ------------------------------------------------------------------
    # The paper's future work: all ten terms as one stencil pattern
    # ------------------------------------------------------------------

    def _fused_kernels(self) -> Dict[str, CompiledStencil]:
        """One fused compilation per time-level role (memoized by the
        compile driver).

        The tenth term's source array name is part of the compiled
        register access patterns, so -- exactly like the paper's
        3x-unrolled loop -- the fused loop body exists in three copies,
        one per rotation of the time-level roles.
        """
        return {
            field.name: fuse(
                self.pattern,
                [ExtraTerm(source=field.name, coeff=Coefficient.array("C10"))],
                self.machine.params,
            )
            for field in self.fields
        }

    def run_fused_loop(
        self, steps: int, wavelet: Optional[np.ndarray] = None
    ) -> SeismicTiming:
        """All ten terms as one stencil pattern (paper section 7's
        "future versions of the compiler" -- implemented).

        The tenth term rides inside the microcode loop's multiply-add
        chains instead of a separate elementwise pass, removing that
        pass's memory traffic and host call entirely.  Bit-identical to
        the other two loops (same accumulation order: nine taps, then
        the fused term).
        """
        from ..runtime.stencil_op import apply_stencil

        kernels = self._fused_kernels()
        coefficients = dict(self.coefficients)
        coefficients["C10"] = self.c10
        roles = [0, 1, 2]
        points = self.global_shape[0] * self.global_shape[1]
        for step in range(steps):
            if wavelet is not None and step < len(wavelet):
                self._current = roles[1]
                self.inject_source(float(wavelet[step]))
            prev_i, cur_i, new_i = roles
            previous = self.fields[prev_i]
            run = apply_stencil(
                kernels[previous.name],
                self.fields[cur_i],
                coefficients,
                self.fields[new_i],
            )
            self.timing.steps += 1
            self.timing.machine_seconds += run.machine_seconds_per_iteration
            self.timing.host_seconds += run.host_seconds_per_iteration
            self.timing.useful_flops += points * (
                self.pattern.useful_flops_per_point() + 2
            )
            self._sample_receivers(new_i)
            roles = [cur_i, new_i, prev_i]
        self._previous, self._current = roles[0], roles[1]
        return self.timing

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def wavefield(self) -> np.ndarray:
        """The current wavefield, gathered to the host."""
        return self.fields[self._current].to_numpy()

    def reference_step(
        self, current: np.ndarray, previous: np.ndarray
    ) -> np.ndarray:
        """One kernel step with pure-numpy semantics (test oracle)."""
        from ..baseline.reference import reference_stencil

        coeffs = {
            name: array.to_numpy() for name, array in self.coefficients.items()
        }
        stencil = reference_stencil(self.pattern, current, coeffs)
        c10 = self.c10.to_numpy()
        return (stencil + (c10 * previous.astype(np.float32)).astype(np.float32)).astype(
            np.float32
        )
