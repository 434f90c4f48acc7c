"""Per-node memory: named buffers behind the interface chip.

Each CM-2 node owns a slice of the machine's memory holding its subgrid
of every array involved in the computation (source with halo,
coefficients, result) plus small constant pages for scalar and unit
coefficients.  All data is single-precision, matching the paper's
measurements ("All measurements are for single-precision (that is,
32-bit) floating-point operations").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .isa import ONES_BUFFER, MemRef, const_buffer_name


class MemoryError_(Exception):
    """An out-of-bounds or unknown-buffer access (a compiler/runtime bug)."""


def parity_word(array: np.ndarray) -> int:
    """XOR of a float32 region's raw 32-bit words.

    The software analogue of the CM-2 memory system's parity: one word
    summarizing a buffer's exact bit content.  Any single bit flip (and
    any odd-multiplicity corruption) changes the word; comparing sealed
    and recomputed parity is how the resilient runtime detects scratch
    corruption.  Works on non-contiguous views -- a same-itemsize dtype
    view aliases the region without copying.
    """
    a = np.asarray(array)
    if a.dtype != np.float32:
        a = np.ascontiguousarray(a, dtype=np.float32)
    if a.size == 0:
        return 0
    return int(np.bitwise_xor.reduce(a.view(np.uint32), axis=None))


class NodeMemory:
    """Named float32 buffers with bounds-checked access.

    A buffer's trailing two axes address a word; any axes ahead of them
    are lanes, so a read returns one word of a 2-D buffer, or one word
    per node and batch entry of a whole-machine stack (:meth:`hold`).

    A machine node's memory *is* its ``tile`` of every distributed
    array: a name ``storage`` holds resolves, on each access, to this
    node's ``[row, col]`` tile of the stack held now.  Only node-private
    buffers (constant pages, sequencer scratch) live in the node's own
    dict; a distributed name cannot be installed, allocated, aliased or
    freed here.  A standalone ``NodeMemory()`` holds private buffers.
    """

    def __init__(
        self,
        storage: Optional["MachineStorage"] = None,
        tile: Optional[Tuple[int, int]] = None,
    ) -> None:
        self._buffers: Dict[str, np.ndarray] = {}
        self.storage = storage
        #: ``(row, col)`` in the node grid; None on an undeployed spare.
        self.tile = tile

    def _private(self, name: str, action: str) -> None:
        """Refuse ``action`` on a name the machine storage holds."""
        if self.storage is not None and self.storage.get(name) is not None:
            raise MemoryError_(
                f"cannot {action} {name!r} in node memory: it is a "
                "distributed array held by machine storage; change it "
                "through its CMArray instead"
            )

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def allocate(self, name: str, shape: Tuple[int, int]) -> np.ndarray:
        """Allocate (or replace) a zero-filled buffer."""
        self._private(name, "allocate")
        buffer = np.zeros(shape, dtype=np.float32)
        self._buffers[name] = buffer
        return buffer

    def install(self, name: str, data: np.ndarray) -> np.ndarray:
        """Install an existing array as a buffer (copied to float32)."""
        self._private(name, "install")
        if data.ndim != 2:
            raise MemoryError_(f"buffer {name!r} must be 2-D, got {data.ndim}-D")
        buffer = np.array(data, dtype=np.float32)
        self._buffers[name] = buffer
        return buffer

    def hold(self, name: str, stack: np.ndarray) -> None:
        """Hold ``stack`` under private ``name`` by reference, not a
        copy: one exact pass's memory holds the pass's stacks, so its
        reads and writes are lanes of them."""
        self._private(name, "hold")
        self._buffers[name] = stack

    def view(self, name: str) -> Optional[np.ndarray]:
        """The buffer named ``name``, or None.  Batched
        stacks are whole-machine only: no node memory resolves them."""
        stack = None if self.storage is None else self.storage.get(name)
        if stack is not None and stack.ndim == 4 and self.tile is not None:
            return stack[self.tile]
        return self._buffers.get(name)

    def ensure_constant_pages(self, values=()) -> None:
        """Allocate the 1.0 page and one page per scalar coefficient value.

        The floating-point unit requires one multiplicand to come from
        memory, so unit and scalar coefficients are streamed from these
        single-element pages at a fixed address.
        """
        if ONES_BUFFER not in self._buffers:
            self.install(ONES_BUFFER, np.array([[1.0]], dtype=np.float32))
        for value in values:
            name = const_buffer_name(value)
            if name not in self._buffers:
                self.install(name, np.array([[value]], dtype=np.float32))

    def alias(self, name: str, target: str) -> None:
        """Make private ``name`` refer to the same storage as ``target``.

        Compiled register access patterns bake buffer names, so a stable
        name is re-pointed at the right buffer before it is read -- the
        software analogue of the sequencer's run-time base-address
        parameters.  Distributed names are aliased machine-wide instead
        (:meth:`MachineStorage.alias`).
        """
        self._private(name, "alias")
        self._private(target, "alias to")
        self._buffers[name] = self.buffer(target)

    def free(self, name: str) -> None:
        self._private(name, "free")
        self._buffers.pop(name, None)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def buffer(self, name: str) -> np.ndarray:
        buffer = self.view(name)
        if buffer is None:
            raise MemoryError_(f"no buffer named {name!r}")
        return buffer

    def has_buffer(self, name: str) -> bool:
        return self.view(name) is not None

    def read(self, ref: MemRef) -> np.ndarray:
        """The word at ``ref`` of every lane, copied: a value, not a
        view a later write could change."""
        buffer = self.buffer(ref.buffer)
        self._check(buffer, ref)
        return buffer[..., ref.row, ref.col].copy()

    def write(self, ref: MemRef, value) -> None:
        buffer = self.buffer(ref.buffer)
        self._check(buffer, ref)
        buffer[..., ref.row, ref.col] = value

    def _check(self, buffer: np.ndarray, ref: MemRef) -> None:
        rows, cols = buffer.shape[-2:]
        if not (0 <= ref.row < rows and 0 <= ref.col < cols):
            raise MemoryError_(
                f"access ({ref.row}, {ref.col}) outside buffer "
                f"{ref.buffer!r} of shape {buffer.shape}"
            )

    @property
    def buffer_names(self) -> Tuple[str, ...]:
        """The node-private buffers."""
        return tuple(self._buffers)

    def total_words(self) -> int:
        """Total private words allocated (for temporary-storage
        accounting)."""
        return sum(buf.size for buf in self._buffers.values())


@dataclass(frozen=True)
class StorageCheckpoint:
    """A point-in-time deep copy of named machine-wide stacks.

    Produced by :meth:`MachineStorage.checkpoint`; applied back with
    :meth:`MachineStorage.restore`.  Restoring writes *into* the live
    stacks in place, so every array naming them sees the restored data.
    """

    stacks: Dict[str, np.ndarray]

    @property
    def words(self) -> int:
        """Total words copied (for checkpoint cost accounting)."""
        return sum(stack.size for stack in self.stacks.values())


def node_view(array: np.ndarray, grid_shape: Tuple[int, int]) -> np.ndarray:
    """A global-row ``lead + (height, width)`` array's node view, ``lead
    + (grid_rows, grid_cols, rows, cols)``: tile ``[..., r, c, :, :]``
    is node ``(r, c)``'s subgrid, a view of its rows and columns."""
    grid_rows, grid_cols = grid_shape
    *lead, height, width = array.shape
    split = (grid_rows, height // grid_rows, grid_cols, width // grid_cols)
    return _view(array, tuple(lead) + split).swapaxes(-3, -2)


def global_view(stack: np.ndarray) -> np.ndarray:
    """The inverse of :func:`node_view`: a node view's global rows."""
    *lead, grid_rows, grid_cols, rows, cols = stack.shape
    merged = (grid_rows * rows, grid_cols * cols)
    return _view(stack.swapaxes(-3, -2), tuple(lead) + merged)


def _view(array: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """``array`` reshaped to ``shape`` as a view: raises
    :class:`MemoryError_` where ``reshape`` would silently copy."""
    view = array.view()
    try:
        view.shape = shape
    except AttributeError:
        raise MemoryError_(
            f"an array of strides {array.strides} has no {shape} view"
        ) from None
    return view


class MachineStorage:
    """Whole-machine backing store for distributed buffers.

    The only map from a distributed array name to its data.  Every
    array -- distributed, batched, 3-D, halo, scratch and ping-pong
    alike -- is one float32 array in global row order, handed out as its
    node view (:func:`node_view`), made once when it is allocated;
    :meth:`global_array` (:func:`global_view`) gives the rows back.  A
    node's :class:`NodeMemory` resolves a name to its ``[row, col]``
    tile of that view on each access, so every path reads the same
    storage, and a name re-allocated here is seen by every node at
    once.  Aliases (:meth:`alias`) share the target's array under a
    second name.

    Scratch stacks (:meth:`scratch`, :meth:`pingpong`) are machine-wide
    work buffers that no node memory resolves -- the temporal-blocking
    executor's deep-padded iterates and coefficient halos.  They are
    allocated once per (name, shape) and reused across calls;
    :attr:`scratch_allocations` counts actual allocations so tests can
    assert that warm steady-state runs allocate nothing.
    """

    def __init__(self, grid_shape: Tuple[int, int]) -> None:
        self.grid_shape = grid_shape
        self._stacks: Dict[str, np.ndarray] = {}
        self._scratch: Dict[str, np.ndarray] = {}
        #: Number of scratch stacks actually allocated (cache misses).
        self.scratch_allocations = 0

    def _zeros(
        self, buffer_shape: Tuple[int, int], lead_shape: Tuple[int, ...]
    ) -> np.ndarray:
        """The node view of a new zero-filled global-row array whose
        nodes each hold ``buffer_shape``."""
        (grid_rows, grid_cols), (rows, cols) = self.grid_shape, buffer_shape
        lead = tuple(int(n) for n in lead_shape)
        array = np.zeros(lead + (grid_rows * rows, grid_cols * cols), np.float32)
        return node_view(array, self.grid_shape)

    def allocate(
        self,
        name: str,
        subgrid_shape: Tuple[int, int],
        lead_shape: Tuple[int, ...] = (),
    ) -> np.ndarray:
        """Allocate (or replace) a zero-filled array for ``name``, with
        any ``lead_shape`` axes (batch, filter, ...) ahead of the
        global rows; returns its node view.

        Batched stacks live in the distributed-array namespace -- they
        checkpoint and NaN out with their node tile on a node death
        like any 4-d stack -- but a node's memory does not resolve
        them; exact mode streams them whole, one lane per entry.
        """
        stack = self._zeros(subgrid_shape, lead_shape)
        self._stacks[name] = stack
        return stack

    def get(self, name: str) -> Optional[np.ndarray]:
        """The node view of the array held under ``name``, or None."""
        return self._stacks.get(name)

    def global_array(self, name: str) -> Optional[np.ndarray]:
        """The global-row array held under ``name``, or None."""
        stack = self._stacks.get(name)
        return None if stack is None else global_view(stack)

    def alias(self, name: str, target: str) -> None:
        """Point ``name`` at the array held under ``target``."""
        stack = self._stacks.get(target)
        if stack is None:
            raise MemoryError_(
                f"cannot alias {name!r}: no array named {target!r}"
            )
        self._stacks[name] = stack

    def free(self, name: str) -> None:
        self._stacks.pop(name, None)

    def distinct(self, *, scratch: bool = False):
        """Every distinct stack as ``(name, node view)`` pairs, an
        aliased one once: the distributed arrays, then with ``scratch``
        the work stacks.  Their tiles are a node's state -- what a dead
        node loses, a spare receives, a genesis checkpoint saves."""
        seen = set()
        items = list(self._stacks.items())
        if scratch:
            items += list(self._scratch.items())
        for name, stack in items:
            if id(stack) not in seen:
                seen.add(id(stack))
                yield name, stack

    # ------------------------------------------------------------------
    # Scratch stacks (temporal blocking)
    # ------------------------------------------------------------------

    def scratch(
        self,
        name: str,
        buffer_shape: Tuple[int, int],
        lead_shape: Tuple[int, ...] = (),
    ) -> np.ndarray:
        """A reusable machine-wide scratch stack of per-node shape
        ``buffer_shape`` (with optional batch/filter axes ahead of the
        node grid).

        Unlike :meth:`allocate`, the returned stack is kept in a
        separate namespace (it never shadows a distributed array, and no
        node memory resolves it) and is
        reused verbatim when the shape matches the previous request, so
        steady-state iterated runs perform no allocation.  Contents are
        *not* cleared between calls; callers overwrite what they read.
        """
        shape = tuple(int(n) for n in (*lead_shape, *self.grid_shape, *buffer_shape))
        stack = self._scratch.get(name)
        if stack is None or stack.shape != shape:
            stack = self._zeros(buffer_shape, lead_shape)
            self._scratch[name] = stack
            self.scratch_allocations += 1
        return stack

    def pingpong(
        self,
        name: str,
        buffer_shape: Tuple[int, int],
        lead_shape: Tuple[int, ...] = (),
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The two preallocated ping-pong stacks backing ``name``'s
        temporally blocked iterates (allocated once, reused)."""
        return (
            self.scratch(f"{name}__ping__", buffer_shape, lead_shape),
            self.scratch(f"{name}__pong__", buffer_shape, lead_shape),
        )

    # ------------------------------------------------------------------
    # Checkpoint/restore (fault tolerance)
    # ------------------------------------------------------------------

    def lookup(self, name: str) -> Optional[np.ndarray]:
        """A named stack from either namespace: distributed arrays
        first, then scratch (ping-pong) stacks."""
        stack = self._stacks.get(name)
        if stack is not None:
            return stack
        return self._scratch.get(name)

    def checkpoint(self, names) -> StorageCheckpoint:
        """Snapshot the named stacks (distributed or scratch) so an
        iterated run can roll back to this exact state after detected
        corruption."""
        copies: Dict[str, np.ndarray] = {}
        for name in names:
            stack = self.lookup(name)
            if stack is None:
                raise MemoryError_(
                    f"cannot checkpoint unknown buffer {name!r}"
                )
            # In the stack's own memory order: one run of words.
            copies[name] = stack.copy(order="K")
        return StorageCheckpoint(stacks=copies)

    def restore(self, checkpoint: StorageCheckpoint) -> None:
        """Write a checkpoint back into the live stacks, in place."""
        for name, saved in checkpoint.stacks.items():
            stack = self.lookup(name)
            if stack is None or stack.shape != saved.shape:
                raise MemoryError_(
                    f"cannot restore {name!r}: live buffer missing or "
                    "reshaped since the checkpoint"
                )
            stack[...] = saved
