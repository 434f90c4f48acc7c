"""Node-grid geometry and its hypercube embedding.

The CM-2's nodes form an 11-dimensional hypercube (2,048 nodes; a 16-node
single board is a 4-cube).  Grid communication primitives embed a 2-D
grid in the hypercube "in such a way that grid neighbors are hypercube
neighbors, thereby making effective use of the network" (paper section
4.1) -- the classic binary-reflected Gray code embedding, reproduced
here and checked by tests.

The machine's boards were *deconfigurable*: a failed chip could be mapped
out and a spare mapped in without changing the program's view of the
grid.  :class:`CoordinateMap` models that indirection -- every logical
grid position resolves through it to a physical node id, and a confirmed
dead node is remapped onto a spare from a configured spare row/column
while the logical grid (and therefore every compiled plan, decomposition,
and exchange schedule) stays fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def grid_shape(num_nodes: int) -> Tuple[int, int]:
    """The 2-D node grid for a power-of-two machine size.

    The dimensions are as close to square as powers of two allow, with
    the larger extent horizontal: 16 nodes form a 4x4 grid (paper's
    example), 2,048 nodes a 32x64 grid.
    """
    if not is_power_of_two(num_nodes):
        raise ValueError(
            f"the CM-2 node count must be a power of two, got {num_nodes}"
        )
    log2 = num_nodes.bit_length() - 1
    rows = 1 << (log2 // 2)
    cols = 1 << (log2 - log2 // 2)
    return rows, cols


def gray_code(index: int) -> int:
    """The binary-reflected Gray code of ``index``."""
    return index ^ (index >> 1)


def node_address(row: int, col: int, shape: Tuple[int, int]) -> int:
    """Hypercube address of the node at grid position ``(row, col)``.

    Rows and columns are Gray-coded independently and the column bits are
    placed above the row bits, so stepping to any of the four grid
    neighbors flips exactly one address bit.
    """
    rows, cols = shape
    if not (0 <= row < rows and 0 <= col < cols):
        raise ValueError(f"({row}, {col}) outside node grid {shape}")
    row_bits = (rows - 1).bit_length()
    return (gray_code(col) << row_bits) | gray_code(row)


def hamming_distance(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


@dataclass(frozen=True)
class NodeCoord:
    """A node's position in the 2-D grid (torus)."""

    row: int
    col: int

    def neighbors(self, shape: Tuple[int, int]) -> "dict[str, NodeCoord]":
        """The four torus neighbors, keyed North/South/West/East.

        North is toward smaller rows, matching the stencil convention.
        """
        rows, cols = shape
        return {
            "N": NodeCoord((self.row - 1) % rows, self.col),
            "S": NodeCoord((self.row + 1) % rows, self.col),
            "W": NodeCoord(self.row, (self.col - 1) % cols),
            "E": NodeCoord(self.row, (self.col + 1) % cols),
        }

    def diagonal_neighbors(self, shape: Tuple[int, int]) -> "dict[str, NodeCoord]":
        rows, cols = shape
        return {
            "NW": NodeCoord((self.row - 1) % rows, (self.col - 1) % cols),
            "NE": NodeCoord((self.row - 1) % rows, (self.col + 1) % cols),
            "SW": NodeCoord((self.row + 1) % rows, (self.col - 1) % cols),
            "SE": NodeCoord((self.row + 1) % rows, (self.col + 1) % cols),
        }


def all_coords(shape: Tuple[int, int]) -> Iterator[NodeCoord]:
    rows, cols = shape
    for row in range(rows):
        for col in range(cols):
            yield NodeCoord(row, col)


def spare_count(shape: Tuple[int, int], spares) -> int:
    """Resolve a ``CM2(spares=...)`` specification to a node count.

    ``"row"`` configures one spare row (``grid_cols`` nodes), ``"col"``
    one spare column (``grid_rows`` nodes); an int is taken verbatim.
    """
    rows, cols = shape
    if isinstance(spares, bool):
        raise ValueError(
            "spares must be a non-negative int, 'row', or 'col', got "
            f"{spares!r}"
        )
    if spares in (None, 0):
        return 0
    if spares == "row":
        return cols
    if spares in ("col", "column"):
        return rows
    if isinstance(spares, int) and not isinstance(spares, bool):
        if spares < 0:
            raise ValueError(f"spare count must be non-negative, got {spares}")
        return spares
    raise ValueError(
        f"spares must be a non-negative int, 'row', or 'col', got {spares!r}"
    )


class SpareExhaustedError(RuntimeError):
    """A remap was requested but no spare physical node remains."""


class PartitionError(ValueError):
    """A partition does not legally carve the parent node grid.

    Raised at :class:`~repro.machine.machine.CM2` construction (and by
    :meth:`Partition.validate`), *before* any storage is allocated or
    halos move -- the alternative is an opaque shape error deep inside
    halo exchange.  ``overlap`` names the offending parent-grid
    coordinates when the failure is a collision with reserved (spare
    pool) nodes or another tenant's rectangle.
    """

    def __init__(
        self,
        message: str,
        overlap: Tuple[Tuple[int, int], ...] = (),
    ) -> None:
        super().__init__(message)
        self.overlap = tuple(overlap)


@dataclass(frozen=True)
class Partition:
    """One tenant's rectangle of the parent machine's node grid.

    A partition is the placement record behind a carved-out
    :class:`~repro.machine.machine.CM2`: the parent grid shape, the
    rectangle's origin and shape in parent coordinates, and the parent
    coordinates reserved for the service spare pool (which no tenant
    rectangle may touch).  The partition's own machine runs with logical
    coordinates ``(0..rows-1, 0..cols-1)``; :meth:`to_parent` resolves
    them back onto the parent grid for accounting and health reporting.
    """

    parent_shape: Tuple[int, int]
    origin: Tuple[int, int]
    shape: Tuple[int, int]
    reserved: FrozenSet[Tuple[int, int]] = field(default_factory=frozenset)

    @property
    def num_nodes(self) -> int:
        return self.shape[0] * self.shape[1]

    def coords(self) -> Iterator[Tuple[int, int]]:
        """The parent-grid coordinates the rectangle covers."""
        for dr in range(self.shape[0]):
            for dc in range(self.shape[1]):
                yield (self.origin[0] + dr, self.origin[1] + dc)

    def to_parent(self, row: int, col: int) -> Tuple[int, int]:
        """Map a partition-local logical coordinate to the parent grid."""
        rows, cols = self.shape
        return (self.origin[0] + row % rows, self.origin[1] + col % cols)

    def overlaps(self, other: "Partition") -> bool:
        (ar, ac), (ah, aw) = self.origin, self.shape
        (br, bc), (bh, bw) = other.origin, other.shape
        return ar < br + bh and br < ar + ah and ac < bc + bw and bc < ac + aw

    def validate(self) -> "Partition":
        """Check the rectangle legally tiles the parent grid.

        The rules, each raising a typed :class:`PartitionError`:

        * extents positive, powers of two (the hypercube embedding), and
          within the parent grid;
        * the rectangle is one tile of the regular tiling -- its extents
          divide the parent's and its origin is aligned to multiples of
          them -- so every admitted partition set packs without gaps or
          overlaps by construction;
        * no covered coordinate is reserved for the spare pool (the
          error names the overlapping coordinates).
        """
        prows, pcols = self.parent_shape
        rows, cols = self.shape
        orow, ocol = self.origin
        if rows < 1 or cols < 1:
            raise PartitionError(
                f"partition shape {self.shape} must be at least 1x1"
            )
        if not (is_power_of_two(rows) and is_power_of_two(cols)):
            raise PartitionError(
                f"partition extents must be powers of two for the "
                f"hypercube embedding, got {self.shape}"
            )
        if orow < 0 or ocol < 0 or orow + rows > prows or ocol + cols > pcols:
            raise PartitionError(
                f"partition {self.shape} at origin {self.origin} does not "
                f"fit inside the {prows}x{pcols} parent node grid"
            )
        if prows % rows or pcols % cols:
            raise PartitionError(
                f"partition shape {self.shape} does not tile the "
                f"{prows}x{pcols} parent node grid"
            )
        if orow % rows or ocol % cols:
            raise PartitionError(
                f"partition origin {self.origin} is not aligned to the "
                f"{rows}x{cols} tiling of the {prows}x{pcols} parent grid"
            )
        overlap = tuple(
            sorted(coord for coord in self.coords() if coord in self.reserved)
        )
        if overlap:
            raise PartitionError(
                f"partition {self.shape} at origin {self.origin} overlaps "
                f"the spare-pool reservation at parent coordinates "
                f"{list(overlap)}",
                overlap=overlap,
            )
        return self

    def describe(self) -> str:
        rows, cols = self.shape
        return (
            f"{rows}x{cols} partition at {self.origin} of "
            f"{self.parent_shape[0]}x{self.parent_shape[1]} grid"
        )


class CoordinateMap:
    """The logical grid -> physical node indirection.

    Physical nodes ``0 .. rows*cols - 1`` initially back the logical grid
    in row-major order; physical ids ``rows*cols ..`` are the spare pool
    (one extra hypercube dimension's worth of addresses).  Remapping a
    logical coordinate retires its physical node and binds the next
    spare; the logical grid never changes shape, so decompositions,
    compiled plans, and exchange schedules are untouched -- only the
    resolution of "which hardware executes node (r, c)" moves.
    """

    def __init__(self, shape: Tuple[int, int], num_spares: int = 0) -> None:
        rows, cols = shape
        self.shape = (rows, cols)
        self.num_spares = int(num_spares)
        self._map: Dict[Tuple[int, int], int] = {
            (r, c): r * cols + c for r in range(rows) for c in range(cols)
        }
        #: The inverse: each in-service physical id's logical coordinate.
        self._logical: Dict[int, Tuple[int, int]] = {
            phys: coord for coord, phys in self._map.items()
        }
        first_spare = rows * cols
        self._spare_pool: List[int] = list(
            range(first_spare, first_spare + self.num_spares)
        )
        #: Retired physical ids and the logical coordinate each last held.
        self.retired: Dict[int, Tuple[int, int]] = {}

    def physical(self, row: int, col: int) -> int:
        """The physical node id currently backing logical ``(row, col)``."""
        try:
            return self._map[(row, col)]
        except KeyError:
            raise ValueError(
                f"({row}, {col}) outside logical grid {self.shape}"
            ) from None

    def logical(self, physical_id: int) -> Optional[Tuple[int, int]]:
        """The logical coordinate a physical node currently backs, or
        None for spares and retired nodes."""
        return self._logical.get(physical_id)

    @property
    def spares_remaining(self) -> int:
        return len(self._spare_pool)

    @property
    def in_service(self) -> Tuple[int, ...]:
        """Physical ids currently backing logical coordinates."""
        return tuple(self._map.values())

    def remap(self, row: int, col: int) -> int:
        """Retire ``(row, col)``'s physical node and bind the next spare.

        Returns the new physical id.  Raises
        :class:`SpareExhaustedError` when the spare pool is empty.
        """
        old = self.physical(row, col)
        if not self._spare_pool:
            raise SpareExhaustedError(
                f"no spare left to replace physical node {old} "
                f"at logical ({row}, {col})"
            )
        new = self._spare_pool.pop(0)
        self._map[(row, col)] = new
        del self._logical[old]
        self._logical[new] = (row, col)
        self.retired[old] = (row, col)
        return new

    def describe(self) -> str:
        rows, cols = self.shape
        return (
            f"{rows}x{cols} logical grid, {self.spares_remaining}/"
            f"{self.num_spares} spares free, {len(self.retired)} retired"
        )
