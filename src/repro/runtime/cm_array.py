"""Distributed Connection Machine arrays.

A :class:`CMArray` is a named, 2-D, single-precision array block-divided
over the machine's node grid.  The whole array is backed by one stacked
``(grid_rows, grid_cols, rows, cols)`` float32 machine buffer; each
node's subgrid lives in that node's
:class:`~repro.machine.memory.NodeMemory` as a *view* of the stack under
the array's name, which is how the sequencer's address generation finds
it.  Per-node access (exact mode, host scatter/gather) and batched
whole-machine access (the fast executor, the batched halo exchange)
therefore observe the same storage.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..machine.machine import CM2
from .decomposition import Decomposition


class ExecutionSetupError(ValueError):
    """Arrays handed to the executor do not match the compiled stencil."""


def intact_stack(machine: CM2, name: str) -> np.ndarray:
    """The machine-wide stack behind distributed buffer ``name``.

    The run-time library reads every distributed buffer as one stack,
    so a buffer without one -- or with a node's buffer detached from it,
    e.g. replaced through
    :meth:`~repro.machine.memory.NodeMemory.install` -- raises
    :class:`ExecutionSetupError` naming it.
    """
    stack = machine.stacked(name)
    if stack is None:
        raise ExecutionSetupError(
            f"buffer {name!r} is not backed by an intact machine-wide "
            "stack (a node's copy was replaced outside machine storage); "
            "refill it through its CMArray instead"
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
        self._stacked = machine.alloc_stacked(
            name, self.decomposition.subgrid_shape
        )

    @property
    def global_shape(self) -> Tuple[int, int]:
        return self.decomposition.global_shape

    @property
    def subgrid_shape(self) -> Tuple[int, int]:
        return self.decomposition.subgrid_shape

    @property
    def stacked(self) -> np.ndarray:
        """The whole-machine ``(grid_rows, grid_cols, rows, cols)`` stack."""
        return self._stacked

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
        grid_rows, grid_cols = self.machine.shape
        rows, cols = self.subgrid_shape
        self._stacked[...] = array.reshape(
            grid_rows, rows, grid_cols, cols
        ).swapaxes(1, 2)

    def fill(self, value: float) -> None:
        self._stacked[...] = np.float32(value)

    def to_numpy(self) -> np.ndarray:
        """Gather the node subgrids into a host array."""
        subgrids = {
            node.coord: node.memory.buffer(self.name)
            for node in self.machine.nodes()
        }
        return self.decomposition.gather(subgrids)

    # ------------------------------------------------------------------
    # Node-local views
    # ------------------------------------------------------------------

    def subgrid(self, row: int, col: int) -> np.ndarray:
        """Direct view of the node-(row, col) subgrid buffer."""
        return self.machine.node(row, col).memory.buffer(self.name)

    def like(self, name: str) -> "CMArray":
        """A new zero-filled array with the same shape and machine."""
        return CMArray(name, self.machine, self.global_shape)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rows, cols = self.global_shape
        return f"CMArray({self.name!r}, {rows}x{cols})"
