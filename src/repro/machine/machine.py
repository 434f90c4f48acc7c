"""The simulated Connection Machine: a synchronous grid of nodes.

The CM-2 is a completely synchronous SIMD machine: every node executes
the same instruction stream, so per-node time does not change with
machine size -- the property that makes the paper's extrapolation from
16 to 2,048 nodes reliable (section 7).  The simulator exploits the same
property: cycle counts are computed for the common instruction stream,
and all nodes advance together.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .geometry import (
    CoordinateMap,
    NodeCoord,
    Partition,
    PartitionError,
    all_coords,
    grid_shape,
    is_power_of_two,
    node_address,
    spare_count,
)
from .health import MachineHealth
from .memory import MachineStorage, NodeMemory
from .node import Node
from .params import MachineParams


class CM2:
    """A machine instance: parameters plus the 2-D torus of nodes.

    Distributed arrays are backed by one global-row float32 array per
    name (see :class:`~repro.machine.memory.MachineStorage`), the only
    copy of the name-to-data map; each node's memory reads its own
    ``[row, col]`` tile of its node view, so per-node and whole-machine
    access observe the same data.
    """

    def __init__(
        self,
        params: Optional[MachineParams] = None,
        shape: Optional[Tuple[int, int]] = None,
        spares=0,
        partition: Optional[Partition] = None,
    ) -> None:
        self.params = params or MachineParams()
        if partition is not None:
            # A carved-out tenant machine: validate the placement before
            # any storage exists, so an illegal rectangle is a typed
            # PartitionError here instead of an opaque failure deep
            # inside halo exchange.
            partition.validate()
            if shape is None:
                shape = partition.shape
            elif tuple(shape) != partition.shape:
                raise PartitionError(
                    f"machine shape {tuple(shape)} does not match its "
                    f"partition shape {partition.shape}"
                )
        self.partition = partition
        if shape is None:
            shape = grid_shape(self.params.num_nodes)
        else:
            rows, cols = shape
            if rows * cols != self.params.num_nodes:
                raise ValueError(
                    f"node grid {shape} does not hold "
                    f"{self.params.num_nodes} nodes"
                )
            if not (is_power_of_two(rows) and is_power_of_two(cols)):
                raise ValueError(
                    f"node grid extents must be powers of two for the "
                    f"hypercube embedding, got {shape}"
                )
            shape = (rows, cols)
        self.shape: Tuple[int, int] = shape
        self.storage = MachineStorage(self.shape)
        self._nodes: Dict[NodeCoord, Node] = {
            coord: Node(
                coord=coord,
                address=node_address(coord.row, coord.col, self.shape),
                params=self.params,
                memory=NodeMemory(self.storage, (coord.row, coord.col)),
            )
            for coord in all_coords(self.shape)
        }
        # Deconfigurable-hardware state: the logical->physical map (with
        # its configured spare pool), the spare Node objects themselves
        # (addresses in the next hypercube dimension, as a physically
        # spare board would be), and the health ledger.
        self.coord_map = CoordinateMap(
            self.shape, spare_count(self.shape, spares)
        )
        first_spare = self.num_nodes
        self._spare_nodes: Dict[int, Node] = {
            first_spare + i: Node(
                coord=NodeCoord(-1, first_spare + i),
                address=first_spare + i,
                params=self.params,
                memory=NodeMemory(self.storage),
            )
            for i in range(self.coord_map.num_spares)
        }
        self.health = MachineHealth()

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def grid_rows(self) -> int:
        return self.shape[0]

    @property
    def grid_cols(self) -> int:
        return self.shape[1]

    def node(self, row: int, col: int) -> Node:
        return self._nodes[NodeCoord(row % self.grid_rows, col % self.grid_cols)]

    def parent_coord(self, row: int, col: int) -> Tuple[int, int]:
        """This machine's logical ``(row, col)`` in parent-grid terms.

        Identity for a whole machine; partition machines resolve through
        their placement record, so accounting and health reports can
        name the physical rectangle a tenant actually occupies.
        """
        if self.partition is None:
            return (row % self.grid_rows, col % self.grid_cols)
        return self.partition.to_parent(row, col)

    def nodes(self) -> Iterator[Node]:
        for coord in all_coords(self.shape):
            yield self._nodes[coord]

    # ------------------------------------------------------------------
    # Deconfigurable hardware: spares and remapping
    # ------------------------------------------------------------------

    def physical_id(self, row: int, col: int) -> int:
        """The physical node id behind logical ``(row, col)``."""
        return self.coord_map.physical(
            row % self.grid_rows, col % self.grid_cols
        )

    @property
    def spares_remaining(self) -> int:
        return self.coord_map.spares_remaining

    @property
    def has_spares(self) -> bool:
        return self.coord_map.num_spares > 0

    def lost_coords(self) -> Tuple[NodeCoord, ...]:
        """Logical coordinates currently backed by a dead physical node
        (i.e. in need of a remap before any exchange can complete)."""
        return self._backing(self.health.dead_nodes)

    def slow_coords(self) -> Tuple[NodeCoord, ...]:
        """Logical coordinates backed by a degraded (slow) physical node."""
        return self._backing(self.health.slow_nodes)

    def _backing(self, physical_ids) -> Tuple[NodeCoord, ...]:
        """The logical coordinates ``physical_ids`` back, row-major: a
        walk of the health ledger, not of the grid."""
        found = (self.coord_map.logical(phys) for phys in physical_ids)
        coords = sorted(coord for coord in found if coord is not None)
        return tuple(NodeCoord(*coord) for coord in coords)

    def remap_node(self, row: int, col: int) -> Node:
        """Migrate logical ``(row, col)`` onto the next spare node.

        Rewrites the logical->physical coordinate map and deploys the
        spare ``Node`` at the logical coordinate, whose memory then
        serves that coordinate's tile of every distributed stack -- the
        state-migration step; the data itself is whatever the stacks
        currently hold (the caller restores the lost tile from a
        checkpoint before or after remapping).  The retired
        physical node's health conditions stop applying to the logical
        grid (its links are retired with it).

        Raises :class:`~repro.machine.geometry.SpareExhaustedError` when
        the spare pool is empty.
        """
        coord = NodeCoord(row % self.grid_rows, col % self.grid_cols)
        old_phys = self.coord_map.physical(coord.row, coord.col)
        new_phys = self.coord_map.remap(coord.row, coord.col)
        spare = self._spare_nodes.pop(new_phys)
        spare.coord = coord
        spare.memory.tile = (coord.row, coord.col)
        self._nodes[coord] = spare
        self.health.retire_node(old_phys)
        return spare

    def migration_words(self) -> int:
        """Words one node's migration moves: its tile of every
        distributed stack (the state a spare must receive).  Batched
        stacks count every leading-axis copy of the tile -- the spare
        receives the whole batch's slice."""
        stacks = self.storage.distinct()
        return sum(stack.size // self.num_nodes for _, stack in stacks)

    def stacked(self, name: str) -> Optional[np.ndarray]:
        """The node view, ``(..., grid_rows, grid_cols, rows, cols)``,
        of distributed buffer ``name``, or None when the storage holds
        no such name."""
        return self.storage.get(name)

    def peak_gflops(self) -> float:
        """Peak chained multiply-add rate of the whole machine."""
        return self.params.peak_mflops_per_node * self.num_nodes / 1e3

    def describe(self) -> str:
        rows, cols = self.shape
        spares = (
            f", {self.spares_remaining}/{self.coord_map.num_spares} spares"
            if self.has_spares
            else ""
        )
        carved = (
            f" ({self.partition.describe()})" if self.partition else ""
        )
        return (
            f"CM-2: {self.num_nodes} nodes as a {rows}x{cols} grid"
            f"{carved}{spares}, "
            f"{self.params.clock_hz / 1e6:g} MHz, "
            f"peak {self.peak_gflops():.2f} Gflops"
        )
