"""Block decomposition of arrays onto the node grid (paper Figure 1).

All arrays in a stencil computation are the same size and shape and are
divided among the nodes in the same manner: the nodes form a 2-D grid and
each node holds a 2-D subgrid.  A 256x256 array on 16 nodes (a 4x4 grid)
gives each node a 64x64 subgrid -- the paper's Figure 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..machine.geometry import NodeCoord
from ..machine.machine import CM2
from ..machine.memory import node_view


@dataclass(frozen=True)
class Block:
    """The index ranges (0-based, half-open) one node owns."""

    coord: NodeCoord
    row_start: int
    row_stop: int
    col_start: int
    col_stop: int

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.row_stop - self.row_start, self.col_stop - self.col_start)

    def fortran_ranges(self) -> str:
        """The 1-based inclusive ranges of Figure 1, e.g. ``A(1:64,1:64)``."""
        return (
            f"A({self.row_start + 1}:{self.row_stop},"
            f"{self.col_start + 1}:{self.col_stop})"
        )

    def slices(self) -> Tuple[slice, slice]:
        return (
            slice(self.row_start, self.row_stop),
            slice(self.col_start, self.col_stop),
        )


class Decomposition:
    """A block decomposition of one global array shape onto a node grid.

    The CM-2 is synchronous SIMD: every node executes the same instruction
    stream, so every subgrid must have the same shape -- the global extents
    must divide evenly by the node grid.
    """

    def __init__(self, global_shape: Tuple[int, int], machine: CM2) -> None:
        rows, cols = global_shape
        grid_rows, grid_cols = machine.shape
        if rows % grid_rows or cols % grid_cols:
            raise ValueError(
                f"global shape {global_shape} does not divide evenly over "
                f"the {grid_rows}x{grid_cols} node grid (SIMD execution "
                "requires identical subgrids)"
            )
        self.global_shape = (rows, cols)
        self.machine = machine
        self.subgrid_shape = (rows // grid_rows, cols // grid_cols)

    @property
    def subgrid_rows(self) -> int:
        return self.subgrid_shape[0]

    @property
    def subgrid_cols(self) -> int:
        return self.subgrid_shape[1]

    @property
    def points_per_node(self) -> int:
        return self.subgrid_rows * self.subgrid_cols

    def block(self, coord: NodeCoord) -> Block:
        """The global index ranges owned by the node at ``coord``."""
        sr, sc = self.subgrid_shape
        return Block(
            coord=coord,
            row_start=coord.row * sr,
            row_stop=(coord.row + 1) * sr,
            col_start=coord.col * sc,
            col_stop=(coord.col + 1) * sc,
        )

    def scatter(self, array: np.ndarray) -> np.ndarray:
        """``lead + global_shape`` host data as the machine's node view,
        ``lead + (grid_rows, grid_cols, rows, cols)``
        (:func:`~repro.machine.memory.node_view`)."""
        if tuple(array.shape[-2:]) != self.global_shape:
            raise ValueError(
                f"array shape {array.shape} does not match the "
                f"decomposition's global shape {self.global_shape}"
            )
        return node_view(array, self.machine.shape)

    def gather(self, stack: np.ndarray) -> np.ndarray:
        """The inverse of :meth:`scatter`, as a new host array."""
        tiles = np.array(stack.swapaxes(-3, -2), order="C")
        return tiles.reshape(stack.shape[:-4] + self.global_shape)

    def figure1_text(self) -> str:
        """Render the decomposition as the paper's Figure 1 table."""
        grid_rows, grid_cols = self.machine.shape
        lines = [
            f"Division of a {self.global_shape[0]}x{self.global_shape[1]} "
            f"array among {self.machine.num_nodes} nodes"
        ]
        for row in range(grid_rows):
            cells = [
                self.block(NodeCoord(row, col)).fortran_ranges()
                for col in range(grid_cols)
            ]
            lines.append(" | ".join(cells))
        return "\n".join(lines)
