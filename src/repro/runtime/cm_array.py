"""Distributed Connection Machine arrays.

A :class:`CMArray` is a named, 2-D, single-precision array block-divided
over the machine's node grid.  The machine storage holds the whole
array under its name as one stacked ``(grid_rows, grid_cols, rows,
cols)`` float32 buffer, and the :class:`CMArray` keeps only the name:
every access looks the stack up, and each node's
:class:`~repro.machine.memory.NodeMemory` resolves the name to its own
``[row, col]`` tile.  A node's view and whole-machine access (host
scatter/gather, the fast and exact executors, the halo exchange)
therefore observe the same storage, and two arrays created under one
name are one array.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..machine.machine import CM2
from ..verify.aliasing import ExecutionSetupError
from .decomposition import Decomposition


def stack_of(machine: CM2, name: str) -> np.ndarray:
    """The machine-wide stack behind distributed buffer ``name``;
    raises :class:`ExecutionSetupError` naming a buffer the machine
    storage does not hold."""
    stack = machine.stacked(name)
    if stack is None:
        raise ExecutionSetupError(
            f"no distributed array named {name!r} on this machine; "
            "create it as a CMArray first"
        )
    return stack


class CMArray:
    """A named distributed array."""

    def __init__(
        self,
        name: str,
        machine: CM2,
        global_shape: Tuple[int, int],
    ) -> None:
        self.name = name
        self.machine = machine
        self.decomposition = Decomposition(global_shape, machine)
        machine.storage.allocate(name, self.decomposition.subgrid_shape)

    @property
    def global_shape(self) -> Tuple[int, int]:
        return self.decomposition.global_shape

    @property
    def subgrid_shape(self) -> Tuple[int, int]:
        return self.decomposition.subgrid_shape

    @property
    def stacked(self) -> np.ndarray:
        """The whole-machine ``(grid_rows, grid_cols, rows, cols)`` stack
        the machine storage holds under this array's name now."""
        stack = self.machine.storage.get(self.name)
        if stack is None:
            raise ExecutionSetupError(
                f"array {self.name!r} has been freed from machine storage"
            )
        return stack

    # ------------------------------------------------------------------
    # Host <-> machine data movement
    # ------------------------------------------------------------------

    @classmethod
    def from_numpy(
        cls, name: str, machine: CM2, array: np.ndarray
    ) -> "CMArray":
        """Create a distributed array from host data (scatter)."""
        cm_array = cls(name, machine, tuple(array.shape))
        cm_array.set(array)
        return cm_array

    def set(self, array: np.ndarray) -> None:
        """Scatter host data into the node subgrids."""
        array = np.asarray(array, dtype=np.float32)
        if tuple(array.shape) != self.global_shape:
            raise ValueError(
                f"array shape {array.shape} does not match the "
                f"decomposition's global shape {self.global_shape}"
            )
        self.stacked[...] = self.decomposition.scatter(array)

    def fill(self, value: float) -> None:
        self.stacked[...] = np.float32(value)

    def to_numpy(self) -> np.ndarray:
        """Gather the node subgrids into a host array (the inverse of
        :meth:`set`)."""
        return self.decomposition.gather(self.stacked)

    # ------------------------------------------------------------------
    # Node-local views
    # ------------------------------------------------------------------

    def subgrid(self, row: int, col: int) -> np.ndarray:
        """Direct view of the node-(row, col) subgrid buffer."""
        grid_rows, grid_cols = self.machine.shape
        return self.stacked[row % grid_rows, col % grid_cols]

    def like(self, name: str) -> "CMArray":
        """A new zero-filled array with the same shape and machine."""
        return CMArray(name, self.machine, self.global_shape)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rows, cols = self.global_shape
        return f"CMArray({self.name!r}, {rows}x{cols})"
