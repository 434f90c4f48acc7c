"""Second-order acoustic wave equation on the 5-point cross.

The simplest wave kernel: a uniform medium, the paper's opening 5-point
stencil with *scalar* coefficients, and the same two-time-level leapfrog
structure as the seismic model --

    P(t+1) = lam2 * (N + S + E + W) + (2 - 4*lam2) * P(t) - P(t-1)

expressed through the defstencil (Lisp) front end, so the example suite
exercises all three of the paper's interfaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..compiler.driver import compile_defstencil
from ..machine.machine import CM2
from ..runtime.cm_array import CMArray
from ..runtime.elementwise import add_scaled
from ..runtime.stencil_op import apply_stencil


def wave_defstencil(lam2: float) -> str:
    """The kernel as the paper's first-version Lisp interface."""
    center = 2.0 - 4.0 * lam2
    return (
        f"(defstencil wave5 (r p)\n"
        f"  (single-float single-float)\n"
        f"  (:= r (+ (* {lam2!r} (cshift p 1 -1))\n"
        f"           (* {lam2!r} (cshift p 2 -1))\n"
        f"           (* {center!r} p)\n"
        f"           (* {lam2!r} (cshift p 2 +1))\n"
        f"           (* {lam2!r} (cshift p 1 +1)))))"
    )


@dataclass
class WaveTiming:
    steps: int = 0
    elapsed_seconds: float = 0.0
    useful_flops: int = 0

    @property
    def mflops(self) -> float:
        return self.useful_flops / self.elapsed_seconds / 1e6


class WaveSolver:
    """Leapfrog acoustic waves in a periodic uniform medium."""

    def __init__(
        self,
        machine: CM2,
        global_shape: Tuple[int, int],
        *,
        courant: float = 0.5,
    ) -> None:
        if not 0.0 < courant <= 1.0 / np.sqrt(2.0):
            raise ValueError(
                f"courant {courant} outside the 2-D leapfrog stability "
                "limit 1/sqrt(2)"
            )
        self.machine = machine
        self.global_shape = global_shape
        self.lam2 = courant * courant
        self.compiled = compile_defstencil(
            wave_defstencil(self.lam2), machine.params
        )
        self.p_prev = CMArray("P", machine, global_shape)  # also the source name
        self.p_cur = CMArray("PCUR", machine, global_shape)
        self.scratch = CMArray("PNEW", machine, global_shape)
        self.minus_one = CMArray.from_numpy(
            "MINUSONE",
            machine,
            np.full(global_shape, -1.0, dtype=np.float32),
        )
        self.timing = WaveTiming()

    def set_standing_wave(self, kx: int = 1, ky: int = 1) -> None:
        """Initialize an exact standing-wave mode (analytic solution)."""
        rows, cols = self.global_shape
        yy, xx = np.mgrid[0:rows, 0:cols]
        mode = np.sin(2 * np.pi * ky * yy / rows) * np.sin(
            2 * np.pi * kx * xx / cols
        )
        mode = mode.astype(np.float32)
        self.p_prev.set(mode)
        self.p_cur.set(mode)

    def set_pulse(self, *, sigma: float = 3.0) -> None:
        rows, cols = self.global_shape
        yy, xx = np.mgrid[0:rows, 0:cols]
        pulse = np.exp(
            -((yy - rows // 2) ** 2 + (xx - cols // 2) ** 2) / (2 * sigma**2)
        ).astype(np.float32)
        self.p_prev.set(pulse)
        self.p_cur.set(pulse)

    def step(self, steps: int = 1) -> None:
        params = self.machine.params
        for _ in range(steps):
            # The stencil statement names its source P, so the current
            # field must live in the P buffer: rotate data through it.
            cur = self.p_cur.stacked.copy()
            self.p_cur.stacked[...] = self.p_prev.stacked
            self.p_prev.stacked[...] = cur
            # Now p_prev holds current, p_cur holds previous.
            run = apply_stencil(self.compiled, self.p_prev, {}, self.scratch)
            term = add_scaled(
                self.p_cur, self.scratch, self.minus_one, self.p_cur, params
            )
            # p_cur now holds the new field; p_prev holds the old current.
            self.timing.steps += 1
            self.timing.elapsed_seconds += (
                run.seconds_per_iteration + term.seconds(params)
            )
            self.timing.useful_flops += run.useful_flops + (
                term.useful_flops_per_node * self.machine.num_nodes
            )

    def wavefield(self) -> np.ndarray:
        return self.p_cur.to_numpy()

    def energy(self) -> float:
        """Sum of squares of the field (a conserved-ish diagnostic for
        the lossless periodic medium)."""
        field = self.wavefield().astype(np.float64)
        return float((field * field).sum())
