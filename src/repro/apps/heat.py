"""Nine-point heat relaxation: the 3x3 square stencil as an application.

Jacobi relaxation of the 2-D heat equation with the classic 9-point
weights (4/20 on the edges, 1/20 on the corners, 0 at the center being
replaced, here blended with the current value by a relaxation factor).
The stencil statement is written as *Fortran source with scalar literal
coefficients*, exercising the front end's scalar-coefficient path and
the constant-page streaming of the simulated machine end to end.

Boundaries are Dirichlet (held at zero) via EOSHIFT, exercising the FILL
boundary mode of the halo exchange at the global array edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..compiler.driver import compile_fortran
from ..machine.machine import CM2
from ..runtime.cm_array import CMArray
from ..runtime.stencil_op import StencilRun, apply_stencil


def heat_source(statement_blend: float = 0.5, wall: float = 0.0) -> str:
    """The Fortran statement for one blended 9-point relaxation sweep.

    ``u' = (1-b) * u + b * (4*(N+S+E+W) + (NW+NE+SW+SE)) / 20``
    with the division folded into the literals.  ``wall`` is the Dirichlet
    boundary temperature, threaded through as the EOSHIFT BOUNDARY value.
    """
    blend = statement_blend
    edge = blend * 4.0 / 20.0
    corner = blend * 1.0 / 20.0
    center = 1.0 - blend
    w = f", {wall:.10f}"
    return (
        f"R = {corner:.10f} * EOSHIFT(EOSHIFT(U, 1, -1{w}), 2, -1{w}) &\n"
        f"  + {edge:.10f} * EOSHIFT(U, 1, -1{w}) &\n"
        f"  + {corner:.10f} * EOSHIFT(EOSHIFT(U, 1, -1{w}), 2, +1{w}) &\n"
        f"  + {edge:.10f} * EOSHIFT(U, 2, -1{w}) &\n"
        f"  + {center:.10f} * U &\n"
        f"  + {edge:.10f} * EOSHIFT(U, 2, +1{w}) &\n"
        f"  + {corner:.10f} * EOSHIFT(EOSHIFT(U, 1, +1{w}), 2, -1{w}) &\n"
        f"  + {edge:.10f} * EOSHIFT(U, 1, +1{w}) &\n"
        f"  + {corner:.10f} * EOSHIFT(EOSHIFT(U, 1, +1{w}), 2, +1{w})"
    )


@dataclass
class HeatTiming:
    steps: int = 0
    elapsed_seconds: float = 0.0
    useful_flops: int = 0

    @property
    def mflops(self) -> float:
        return self.useful_flops / self.elapsed_seconds / 1e6


class HeatSolver:
    """Jacobi relaxation on the simulated machine."""

    def __init__(
        self,
        machine: CM2,
        global_shape: Tuple[int, int],
        *,
        blend: float = 0.5,
        wall_temperature: float = 0.0,
        initial: Optional[np.ndarray] = None,
    ) -> None:
        if not 0.0 < blend <= 1.0:
            raise ValueError(f"blend must be in (0, 1], got {blend}")
        self.machine = machine
        self.global_shape = global_shape
        self.blend = blend
        self.wall_temperature = wall_temperature
        self.compiled = compile_fortran(
            heat_source(blend, wall_temperature), machine.params
        )
        self.u = CMArray("U", machine, global_shape)
        self.scratch = CMArray("UNEXT", machine, global_shape)
        if initial is not None:
            self.u.set(initial)
        self.timing = HeatTiming()

    def set_hot_spot(
        self, center: Optional[Tuple[int, int]] = None, *, radius: int = 3,
        temperature: float = 100.0,
    ) -> None:
        """Initialize a hot disc in a cold domain."""
        rows, cols = self.global_shape
        if center is None:
            center = (rows // 2, cols // 2)
        yy, xx = np.mgrid[0:rows, 0:cols]
        disc = (yy - center[0]) ** 2 + (xx - center[1]) ** 2 <= radius**2
        field = np.where(disc, temperature, 0.0).astype(np.float32)
        self.u.set(field)

    def step(self, sweeps: int = 1) -> StencilRun:
        """Run ``sweeps`` Jacobi sweeps; returns the last sweep's run."""
        run: Optional[StencilRun] = None
        for _ in range(sweeps):
            run = apply_stencil(self.compiled, self.u, {}, self.scratch)
            # Swap the role of the two buffers by copying back; a real
            # application would ping-pong names, but the stencil source
            # names the arrays, so we keep U canonical.
            self.u.stacked[...] = self.scratch.stacked
            self.timing.steps += 1
            self.timing.elapsed_seconds += run.seconds_per_iteration
            self.timing.useful_flops += run.useful_flops
        assert run is not None
        return run

    def temperature(self) -> np.ndarray:
        return self.u.to_numpy()

    def total_heat(self) -> float:
        """Domain integral of temperature (decreases: heat leaks through
        the cold Dirichlet boundary)."""
        return float(self.temperature().sum())
