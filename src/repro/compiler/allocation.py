"""Register allocation for one multistencil width.

The WTL3164 has 32 internal registers.  One is reserved to hold 0.0 (the
chain-opening addend, and the target of dummy multiply-adds); a second is
reserved to hold 1.0 when the expression contains a constant term or a
bare data term.  "The compiler therefore has 31 or 30 registers into
which to load data elements" (paper section 5.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..machine.params import MachineParams
from ..stencil.multistencil import Multistencil
from ..stencil.pattern import StencilPattern
from .ringbuf import (
    RingBuffer,
    build_rings,
    column_span,
    lcm_of,
    plan_ring_sizes,
    plan_ring_sizes_optimal,
)

#: Physical register reserved to hold 0.0.
ZERO_REG = 0
#: Physical register reserved to hold 1.0 when needed.
UNIT_REG = 1


class AllocationError(Exception):
    """This multistencil width does not fit the register file."""


@dataclass(frozen=True)
class RegisterAllocation:
    """The register assignment for one multistencil width.

    Attributes:
        multistencil: the geometry being allocated.
        zero_reg: register holding 0.0.
        unit_reg: register holding 1.0, or None when not needed.
        rings: one ring buffer per multistencil column, left to right.
        unroll: LCM of the ring sizes -- the register-access-pattern
            unroll factor loaded into sequencer scratch memory.
    """

    multistencil: Multistencil
    zero_reg: int
    unit_reg: Optional[int]
    rings: Tuple[RingBuffer, ...]
    unroll: int

    @property
    def data_registers(self) -> int:
        return sum(ring.size for ring in self.rings)

    @property
    def total_registers(self) -> int:
        return self.data_registers + 1 + (1 if self.unit_reg is not None else 0)

    @property
    def extra_registers(self) -> Tuple[Tuple[int, ...], ...]:
        """``[t][r]``: the register holding fused extra term ``t``'s data
        element for occurrence ``r`` -- ``width`` registers per term,
        after the ring buffers (:func:`~repro.compiler.plan.compile_pattern`
        rejects a width whose terms do not fit)."""
        width = self.multistencil.width
        first = self.total_registers
        return tuple(
            tuple(range(first + t * width, first + (t + 1) * width))
            for t in range(len(self.multistencil.pattern.extra_terms))
        )

    def ring_for_column(self, x: int) -> RingBuffer:
        for ring in self.rings:
            if ring.column.x == x:
                return ring
        raise KeyError(f"no ring buffer for multistencil column {x}")

    def register_for(self, row: int, x: int, line: int) -> int:
        """Physical register holding position ``(row, x)`` on ``line``."""
        return self.ring_for_column(x).register_for(row, line)

    def ring_sizes(self) -> Tuple[int, ...]:
        return tuple(ring.size for ring in self.rings)

    def describe(self) -> str:
        sizes = ",".join(str(size) for size in self.ring_sizes())
        return (
            f"width {self.multistencil.width}: {self.data_registers} data "
            f"registers in rings [{sizes}], unroll {self.unroll}"
        )


def allocate(
    pattern: StencilPattern,
    width: int,
    params: Optional[MachineParams] = None,
    *,
    strategy: str = "paper",
) -> RegisterAllocation:
    """Allocate registers for the given multistencil width.

    Args:
        strategy: ``"paper"`` uses the compression heuristic of section
            5.4; ``"optimal"`` uses the LCM-minimizing dynamic program
            (the "even more clever strategy" the paper anticipates for
            the general case).

    Raises:
        AllocationError: the width needs more data registers than the 31
            (or 30) available -- e.g. the width-8 13-point diamond, which
            needs 48.
    """
    params = params or MachineParams()
    multistencil = Multistencil(pattern, width)
    needs_unit = pattern.needs_unit_register()
    budget = params.registers - 1 - (1 if needs_unit else 0)
    if strategy == "paper":
        sizes = plan_ring_sizes(multistencil.columns, budget)
    elif strategy == "optimal":
        sizes = plan_ring_sizes_optimal(multistencil.columns, budget)
    else:
        raise ValueError(f"unknown ring-sizing strategy {strategy!r}")
    if sizes is None:
        needed = sum(column_span(col) for col in multistencil.columns)
        raise AllocationError(
            f"width-{width} multistencil of {pattern.name or 'stencil'} "
            f"needs {needed} data registers; only {budget} are available"
        )
    unit_reg = UNIT_REG if needs_unit else None
    first_data = (unit_reg if unit_reg is not None else ZERO_REG) + 1
    rings = build_rings(multistencil.columns, sizes, first_data)
    return RegisterAllocation(
        multistencil=multistencil,
        zero_reg=ZERO_REG,
        unit_reg=unit_reg,
        rings=rings,
        unroll=lcm_of(sizes),
    )
