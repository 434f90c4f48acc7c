"""Distributed Connection Machine arrays.

A :class:`CMArray` is a named, 2-D, single-precision array block-divided
over the machine's node grid; a :class:`CMArray3D` stacks such planes
along a node-local depth axis.  The machine storage holds the whole
array under its name as one float32 array in global row order, and the
:class:`CMArray` keeps only the name: every access looks the array up,
as the node view ``stacked`` (``(grid_rows, grid_cols, rows, cols)``)
or the global rows ``global_array``, and each node's
:class:`~repro.machine.memory.NodeMemory` resolves the name to its own
``[row, col]`` tile.  A node's view and whole-machine access (host
copies, the fast and exact executors, the halo exchange, the band
schedule) therefore observe the same storage, and two arrays created
under one name are one array.
"""

from __future__ import annotations

import re
from typing import Optional, Tuple

import numpy as np

from ..machine.machine import CM2
from ..machine.memory import global_view
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


class NamedStack:
    """The storage side of every distributed array: a name the machine
    storage holds one ``lead_shape + global plane`` array under, its
    planes block-divided over the node grid."""

    def __init__(
        self,
        name: str,
        machine: CM2,
        plane_shape: Tuple[int, int],
        lead_shape: Tuple[int, ...] = (),
    ) -> None:
        self.name = name
        self.machine = machine
        self.lead_shape = lead_shape
        self.decomposition = Decomposition(plane_shape, machine)
        machine.storage.allocate(
            name, self.decomposition.subgrid_shape, lead_shape
        )

    @property
    def subgrid_shape(self) -> Tuple[int, int]:
        return self.decomposition.subgrid_shape

    @property
    def stacked(self) -> np.ndarray:
        """The node view (``lead_shape + (grid_rows, grid_cols, rows,
        cols)``) of the array the storage holds under this name now."""
        stack = self.machine.storage.get(self.name)
        if stack is None:
            raise ExecutionSetupError(
                f"array {self.name!r} has been freed from machine storage"
            )
        return stack

    @property
    def global_array(self) -> np.ndarray:
        """The same array in global row order."""
        return global_view(self.stacked)

    def set(self, array: np.ndarray) -> None:
        """Copy ``lead_shape + global plane`` host data into the array."""
        array = np.asarray(array, dtype=np.float32)
        want = self.lead_shape + self.decomposition.global_shape
        if tuple(array.shape) != want:
            raise ValueError(
                f"array shape {array.shape} does not match the shape "
                f"{want} of {self.name!r}"
            )
        self.global_array[...] = array

    def to_numpy(self) -> np.ndarray:
        """A host copy of the array (the inverse of :meth:`set`)."""
        return self.global_array.copy()

    def fill(self, value: float) -> None:
        self.stacked[...] = np.float32(value)


class CMArray(NamedStack):
    """A named distributed array."""

    def __init__(
        self,
        name: str,
        machine: CM2,
        global_shape: Tuple[int, int],
    ) -> None:
        super().__init__(name, machine, global_shape)

    @property
    def global_shape(self) -> Tuple[int, int]:
        return self.decomposition.global_shape

    # ------------------------------------------------------------------
    # Host <-> machine data movement
    # ------------------------------------------------------------------

    @classmethod
    def from_numpy(
        cls, name: str, machine: CM2, array: np.ndarray
    ) -> "CMArray":
        """Create a distributed array from host data (a copy)."""
        cm_array = cls(name, machine, tuple(array.shape))
        cm_array.set(array)
        return cm_array

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


def depth_alias(dz: int) -> str:
    """The compiled name of a depth tap: the plane ``dz`` away."""
    sign = "p" if dz >= 0 else "m"
    return f"__slab_{sign}{abs(dz)}__"


def depth_offset(name: str) -> Optional[int]:
    """The depth offset a :func:`depth_alias` name reads, else None."""
    match = re.fullmatch(r"__slab_([pm])(\d+)__", name)
    if match is None:
        return None
    dz = int(match.group(2))
    return -dz if match.group(1) == "m" else dz


class CMArray3D(NamedStack):
    """A named rank-3 distributed array: its planes block-divided over
    the node grid like a :class:`CMArray`, its depth axis node-local.

    The machine storage holds the whole array under its name as one
    ``(depth, grid_rows, grid_cols, rows, cols)`` stack, depth leading
    like a batch axis.
    """

    def __init__(
        self,
        name: str,
        machine: CM2,
        global_shape: Tuple[int, int, int],
    ) -> None:
        rows, cols, depth = global_shape
        if depth < 1:
            raise ValueError(f"depth must be positive, got {depth}")
        self.global_shape = (rows, cols, depth)
        super().__init__(name, machine, (rows, cols), (depth,))

    @property
    def depth(self) -> int:
        return self.global_shape[2]

    @property
    def plane_shape(self) -> Tuple[int, int]:
        return self.global_shape[:2]

    @classmethod
    def from_numpy(
        cls, name: str, machine: CM2, array: np.ndarray
    ) -> "CMArray3D":
        if array.ndim != 3:
            raise ValueError(f"expected a rank-3 array, got rank {array.ndim}")
        out = cls(name, machine, tuple(array.shape))
        out.set(array)
        return out

    def set(self, array: np.ndarray) -> None:
        """Copy ``(rows, cols, depth)`` host data into the array."""
        array = np.asarray(array, dtype=np.float32)
        if tuple(array.shape) != self.global_shape:
            raise ValueError(
                f"array shape {array.shape} != {self.global_shape}"
            )
        self.global_array[...] = np.moveaxis(array, 2, 0)

    def to_numpy(self) -> np.ndarray:
        """A ``(rows, cols, depth)`` host copy of the array."""
        return np.ascontiguousarray(np.moveaxis(self.global_array, 0, 2))

    def slab(self, k: int) -> CMArray:
        """Plane ``k``: a :class:`CMArray` over that plane of the stack,
        not a copy."""
        return _Plane(self, k)

    def like(self, name: str) -> "CMArray3D":
        return CMArray3D(name, self.machine, self.global_shape)


class _Plane(CMArray):
    """One plane of a :class:`CMArray3D`; its stack is the volume's."""

    def __init__(self, volume: CMArray3D, k: int) -> None:
        self.name = f"{volume.name}__k{k}__"
        self.machine = volume.machine
        self.lead_shape = ()
        self.decomposition = volume.decomposition
        self.volume = volume
        self.k = k

    @property
    def stacked(self) -> np.ndarray:
        return self.volume.stacked[self.k]
