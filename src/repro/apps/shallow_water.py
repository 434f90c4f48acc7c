"""Linearized shallow-water equations: coupled fields, fused stencils.

A different usage pattern from the single-field kernels: three coupled
fields (surface height ``h``, velocities ``u`` and ``v``) advanced by
the forward-backward scheme,

    u' = u - (g dt / 2 dx) (h_E - h_W)
    v' = v - (g dt / 2 dx) (h_S - h_N)
    h' = h - (H dt / 2 dx) ((u'_E - u'_W) + (v'_S - v'_N)),

with each update compiled as a *fused* stencil: the shifted taps read
one field while the updated field itself rides as an extra (0, 0) term
with a streamed unit coefficient -- the paper's future-work fusion
carrying a real multi-field application.  The height update has shifted
taps on two different fields, so it splits into two fused applications
(``u`` contribution, then ``v`` contribution), exactly the kind of
statement the paper's section 9 says the stencil class should
generalize toward.

In-place updates are safe: the extra term reads offset (0, 0) only, and
within every half-strip a line's loads precede its stores while the
sweep never revisits a written row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..compiler.fusion import fuse
from ..compiler.plan import CompiledStencil
from ..machine.machine import CM2
from ..machine.params import MachineParams
from ..runtime.cm_array import CMArray
from ..runtime.stencil_op import apply_stencil
from ..stencil.pattern import Coefficient, ExtraTerm, StencilPattern, Tap

GRAVITY = 9.81


def _gradient_pattern(source: str, axis: int, factor: float, name: str) -> StencilPattern:
    """``-factor * (x_plus - x_minus)`` as two scalar taps over ``source``."""
    plus = (0, 1) if axis == 2 else (1, 0)
    minus = (0, -1) if axis == 2 else (-1, 0)
    taps = [
        Tap(offset=plus, coeff=Coefficient.scalar(-factor)),
        Tap(offset=minus, coeff=Coefficient.scalar(factor)),
    ]
    return StencilPattern(taps, source=source, name=name)


@dataclass
class ShallowWaterTiming:
    steps: int = 0
    elapsed_seconds: float = 0.0
    useful_flops: int = 0

    @property
    def mflops(self) -> float:
        return self.useful_flops / self.elapsed_seconds / 1e6


class ShallowWaterModel:
    """Forward-backward shallow-water dynamics on the simulated machine.

    Args:
        machine: the CM-2 to run on.
        global_shape: grid dimensions.
        depth: resting water depth H (m).
        dt: time step (s).
        dx: grid spacing (m).
    """

    def __init__(
        self,
        machine: CM2,
        global_shape: Tuple[int, int],
        *,
        depth: float = 100.0,
        dt: float = 1.0,
        dx: float = 1000.0,
    ) -> None:
        self.machine = machine
        self.global_shape = global_shape
        self.depth = depth
        self.dt = dt
        self.dx = dx
        wave_speed = float(np.sqrt(GRAVITY * depth))
        self.courant = wave_speed * dt / dx
        if self.courant > 0.7:
            raise ValueError(
                f"unstable: gravity-wave Courant number {self.courant:.3f} "
                "exceeds the forward-backward limit (~0.7); reduce dt"
            )
        params = machine.params
        g_factor = GRAVITY * dt / (2.0 * dx)
        h_factor = depth * dt / (2.0 * dx)

        def fused_update(base: StencilPattern, carried: str) -> CompiledStencil:
            return fuse(
                base,
                [ExtraTerm(source=carried, coeff=Coefficient.scalar(1.0))],
                params,
            )

        self._u_update = fused_update(
            _gradient_pattern("H", 2, g_factor, "du"), "U"
        )
        self._v_update = fused_update(
            _gradient_pattern("H", 1, g_factor, "dv"), "V"
        )
        self._h_from_u = fused_update(
            _gradient_pattern("U", 2, h_factor, "dhu"), "H"
        )
        self._h_from_v = fused_update(
            _gradient_pattern("V", 1, h_factor, "dhv"), "H"
        )

        self.h = CMArray("H", machine, global_shape)
        self.u = CMArray("U", machine, global_shape)
        self.v = CMArray("V", machine, global_shape)
        self.timing = ShallowWaterTiming()

    # ------------------------------------------------------------------
    # Setup and inspection
    # ------------------------------------------------------------------

    def set_gaussian_bump(
        self, *, amplitude: float = 1.0, sigma: float = 6.0
    ) -> None:
        rows, cols = self.global_shape
        yy, xx = np.mgrid[0:rows, 0:cols]
        bump = amplitude * np.exp(
            -((yy - rows / 2) ** 2 + (xx - cols / 2) ** 2) / (2 * sigma**2)
        )
        self.h.set(bump.astype(np.float32))
        self.u.fill(0.0)
        self.v.fill(0.0)

    def fields(self) -> Dict[str, np.ndarray]:
        return {
            "h": self.h.to_numpy(),
            "u": self.u.to_numpy(),
            "v": self.v.to_numpy(),
        }

    def total_mass(self) -> float:
        """Domain sum of h: conserved by the periodic centered scheme."""
        return float(self.h.to_numpy().astype(np.float64).sum())

    def energy(self) -> float:
        """g h^2 + H (u^2 + v^2), summed: bounded for a stable scheme."""
        f = self.fields()
        return float(
            (
                GRAVITY * f["h"].astype(np.float64) ** 2
                + self.depth
                * (f["u"].astype(np.float64) ** 2 + f["v"].astype(np.float64) ** 2)
            ).sum()
        )

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    def _apply(
        self, compiled: CompiledStencil, source: CMArray, out: CMArray
    ) -> None:
        run = apply_stencil(compiled, source, {}, out)
        self.timing.elapsed_seconds += run.seconds_per_iteration
        self.timing.useful_flops += run.useful_flops

    def step(self, steps: int = 1) -> ShallowWaterTiming:
        """Advance the dynamics: velocities first, then the height from
        the *updated* velocities (the forward-backward ordering that
        buys the scheme its stability)."""
        for _ in range(steps):
            self._apply(self._u_update, self.h, self.u)
            self._apply(self._v_update, self.h, self.v)
            self._apply(self._h_from_u, self.u, self.h)
            self._apply(self._h_from_v, self.v, self.h)
            self.timing.steps += 1
        return self.timing

    # ------------------------------------------------------------------
    # Oracle
    # ------------------------------------------------------------------

    def reference_step(
        self, h: np.ndarray, u: np.ndarray, v: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One step with plain numpy in the same float32 tap order."""
        f32 = np.float32
        g_factor = f32(GRAVITY * self.dt / (2.0 * self.dx))
        h_factor = f32(self.depth * self.dt / (2.0 * self.dx))

        def east(a):
            return np.roll(a, -1, 1)

        def west(a):
            return np.roll(a, 1, 1)

        def south(a):
            return np.roll(a, -1, 0)

        def north(a):
            return np.roll(a, 1, 0)

        u2 = (
            ((-g_factor) * east(h)).astype(f32)
            + (g_factor * west(h)).astype(f32)
        ).astype(f32)
        u2 = (u2 + (f32(1.0) * u).astype(f32)).astype(f32)
        v2 = (
            ((-g_factor) * south(h)).astype(f32)
            + (g_factor * north(h)).astype(f32)
        ).astype(f32)
        v2 = (v2 + (f32(1.0) * v).astype(f32)).astype(f32)
        h2 = (
            ((-h_factor) * east(u2)).astype(f32)
            + (h_factor * west(u2)).astype(f32)
        ).astype(f32)
        h2 = (h2 + (f32(1.0) * h).astype(f32)).astype(f32)
        h3 = (
            ((-h_factor) * south(v2)).astype(f32)
            + (h_factor * north(v2)).astype(f32)
        ).astype(f32)
        h3 = (h3 + (f32(1.0) * h2).astype(f32)).astype(f32)
        return h3, u2, v2
