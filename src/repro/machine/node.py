"""A CM-2 node: two processor chips, one WTL3164, and their memory.

The convolution compiler treats the node as the unit of computation (the
new grid primitive "organizes nodes, not processors, into a
two-dimensional grid").  Each node owns a subgrid of every array and an
FPU, which the simulator steps as one lane of a machine-wide WTL3164
model (:mod:`repro.machine.fpu`); the bit-serial processors themselves
are below the level this simulation needs, but their count fixes the
memory-bandwidth story the slicewise format exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .geometry import NodeCoord
from .memory import NodeMemory
from .params import MachineParams


@dataclass
class Node:
    """One node of the simulated machine."""

    coord: NodeCoord
    address: int  # hypercube address
    params: MachineParams
    memory: NodeMemory = field(default_factory=NodeMemory)

    def describe(self) -> str:
        return (
            f"node({self.coord.row},{self.coord.col}) "
            f"@cube {self.address:#05x}"
        )
