"""Per-node memory: named buffers behind the interface chip.

Each CM-2 node owns a slice of the machine's memory holding its subgrid
of every array involved in the computation (source with halo,
coefficients, result) plus small constant pages for scalar and unit
coefficients.  All data is single-precision, matching the paper's
measurements ("All measurements are for single-precision (that is,
32-bit) floating-point operations").
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass
class AccessCounts:
    """Word-transfer counters for one node's memory system."""

    reads: int = 0
    writes: int = 0

    @property
    def total(self) -> int:
        return self.reads + self.writes


class NodeMemory:
    """Named 2-D float32 buffers with bounds-checked, counted access."""

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}
        self.counts = AccessCounts()
        self._epoch_ref = None

    def track_epoch(self, epoch_ref) -> None:
        """Register a shared one-element counter bumped whenever the
        name-to-buffer mapping changes.  The machine uses it to cache the
        (otherwise every-node) stacked-view integrity check."""
        self._epoch_ref = epoch_ref

    def _touch(self) -> None:
        if self._epoch_ref is not None:
            self._epoch_ref[0] += 1

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def allocate(self, name: str, shape: Tuple[int, int]) -> np.ndarray:
        """Allocate (or replace) a zero-filled buffer."""
        buffer = np.zeros(shape, dtype=np.float32)
        self._buffers[name] = buffer
        self._touch()
        return buffer

    def install(self, name: str, data: np.ndarray) -> np.ndarray:
        """Install an existing array as a buffer (copied to float32)."""
        if data.ndim != 2:
            raise MemoryError_(f"buffer {name!r} must be 2-D, got {data.ndim}-D")
        buffer = np.array(data, dtype=np.float32)
        self._buffers[name] = buffer
        self._touch()
        return buffer

    def install_view(self, name: str, view: np.ndarray) -> np.ndarray:
        """Install an array as a buffer *without copying*.

        Used by the machine-wide stacked storage: each node's subgrid of
        a distributed array is a view into one (grid_rows, grid_cols,
        rows, cols) stack, so the fast executor can process every node
        with single whole-machine array operations while the per-node
        paths (exact mode, the sequencer) keep reading and writing
        through node memory unchanged.
        """
        if view.ndim != 2:
            raise MemoryError_(f"buffer {name!r} must be 2-D, got {view.ndim}-D")
        if view.dtype != np.float32:
            raise MemoryError_(f"buffer {name!r} must be float32, got {view.dtype}")
        self._buffers[name] = view
        self._touch()
        return view

    def view(self, name: str) -> Optional[np.ndarray]:
        """The buffer registered under ``name``, or None (no counting)."""
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
        """Make ``name`` refer to the same storage as ``target``.

        Used by the multidimensional outer loop: compiled register access
        patterns bake buffer names, so the runtime re-points stable alias
        names (e.g. the slab-above/slab-below sources) at the right slab
        before each plane is processed -- the software analogue of the
        sequencer's run-time base-address parameters.
        """
        self._buffers[name] = self.buffer(target)
        self._touch()

    def free(self, name: str) -> None:
        self._buffers.pop(name, None)
        self._touch()

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def buffer(self, name: str) -> np.ndarray:
        try:
            return self._buffers[name]
        except KeyError:
            raise MemoryError_(f"no buffer named {name!r}") from None

    def has_buffer(self, name: str) -> bool:
        return name in self._buffers

    def read(self, ref: MemRef) -> np.float32:
        buffer = self.buffer(ref.buffer)
        self._check(buffer, ref)
        self.counts.reads += 1
        return buffer[ref.row, ref.col]

    def write(self, ref: MemRef, value: float) -> None:
        buffer = self.buffer(ref.buffer)
        self._check(buffer, ref)
        self.counts.writes += 1
        buffer[ref.row, ref.col] = np.float32(value)

    def _check(self, buffer: np.ndarray, ref: MemRef) -> None:
        rows, cols = buffer.shape
        if not (0 <= ref.row < rows and 0 <= ref.col < cols):
            raise MemoryError_(
                f"access ({ref.row}, {ref.col}) outside buffer "
                f"{ref.buffer!r} of shape {buffer.shape}"
            )

    @property
    def buffer_names(self) -> Tuple[str, ...]:
        return tuple(self._buffers)

    def total_words(self) -> int:
        """Total words allocated (for temporary-storage accounting)."""
        return sum(buf.size for buf in self._buffers.values())


@dataclass(frozen=True)
class StorageCheckpoint:
    """A point-in-time deep copy of named machine-wide stacks.

    Produced by :meth:`MachineStorage.checkpoint`; applied back with
    :meth:`MachineStorage.restore`.  Restoring writes *into* the live
    stacks in place, so every node-memory view of them stays valid.
    """

    stacks: Dict[str, np.ndarray]

    @property
    def words(self) -> int:
        """Total words copied (for checkpoint cost accounting)."""
        return sum(stack.size for stack in self.stacks.values())


class MachineStorage:
    """Whole-machine stacked backing store for distributed buffers.

    One entry per distributed array name: a ``(grid_rows, grid_cols,
    rows, cols)`` float32 stack holding every node's subgrid
    contiguously.  Node memories hold views into the stack (see
    :meth:`NodeMemory.install_view`), so per-node access -- the
    cycle-stepped sequencer, the exact executor, host gather/scatter --
    is unchanged, while the fast executor and the halo exchange operate
    on the stack as one array.  They read nothing else: a node buffer
    detached from its stack is refused with a typed error, never read
    node by node.

    Aliases (:meth:`bind`) share the target's stack under a second name,
    the machine-wide analogue of :meth:`NodeMemory.alias`.

    Scratch stacks (:meth:`scratch`, :meth:`pingpong`) are machine-wide
    work buffers that no node memory views -- the temporal-blocking
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
        #: Optional sealed parity words, by buffer name.
        self._parity: Dict[str, int] = {}
        #: Optional ABFT row/column checksum seals, by buffer name
        #: (opaque :class:`repro.runtime.abft.AbftSeal` objects -- the
        #: storage keeps them next to the stacks they cover, the ABFT
        #: layer derives and verifies them).
        self._abft: Dict[str, object] = {}

    def allocate(self, name: str, subgrid_shape: Tuple[int, int]) -> np.ndarray:
        """Allocate (or replace) a zero-filled stack for ``name``."""
        rows, cols = subgrid_shape
        stack = np.zeros(
            (self.grid_shape[0], self.grid_shape[1], rows, cols),
            dtype=np.float32,
        )
        self._stacks[name] = stack
        return stack

    def allocate_batched(
        self,
        name: str,
        lead_shape: Tuple[int, ...],
        subgrid_shape: Tuple[int, int],
    ) -> np.ndarray:
        """Allocate (or replace) a batched stack: ``lead_shape`` axes
        (batch, filter, ...) ahead of the node-grid pair.

        Batched stacks live in the distributed-array namespace -- they
        checkpoint, seal parity, and NaN out with their node tile on a
        node death like any 4-d stack -- but no node memory views them:
        :meth:`NodeMemory.install_view` requires 2-D views, so per-node
        paths (exact mode, the sequencer) stage one ``(batch, filter)``
        slice at a time instead.
        """
        rows, cols = subgrid_shape
        stack = np.zeros(
            tuple(int(n) for n in lead_shape)
            + (self.grid_shape[0], self.grid_shape[1], rows, cols),
            dtype=np.float32,
        )
        self._stacks[name] = stack
        return stack

    def get(self, name: str) -> Optional[np.ndarray]:
        return self._stacks.get(name)

    def bind(self, name: str, stack: np.ndarray) -> None:
        """Register an existing stack under (another) name."""
        self._stacks[name] = stack

    def free(self, name: str) -> None:
        self._stacks.pop(name, None)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(self._stacks)

    def tile_stacks(self):
        """Every distinct node-tiled stack, from both namespaces:
        ``(name, stack)`` pairs whose ``-4/-3`` dims are the node grid
        (4-d classic stacks and batched stacks with leading axes alike).
        Aliased names yield the underlying stack once (the view a dead
        node loses is the storage, not the name)."""
        seen = set()
        for name, stack in list(self._stacks.items()) + list(
            self._scratch.items()
        ):
            if (
                stack.ndim >= 4
                and stack.shape[-4:-2] == self.grid_shape
                and id(stack) not in seen
            ):
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
        separate namespace (it never shadows a distributed array) and is
        reused verbatim when the shape matches the previous request, so
        steady-state iterated runs perform no allocation.  Contents are
        *not* cleared between calls; callers overwrite what they read.
        """
        rows, cols = buffer_shape
        shape = tuple(int(n) for n in lead_shape) + (
            self.grid_shape[0],
            self.grid_shape[1],
            rows,
            cols,
        )
        stack = self._scratch.get(name)
        if stack is None or stack.shape != shape:
            stack = np.zeros(shape, dtype=np.float32)
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
    # Checkpoint/restore and parity (fault tolerance)
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
            copies[name] = stack.copy()
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

    def seal_parity(self, name: str) -> int:
        """Record (and return) the current parity word of a stack, to
        be checked later with :meth:`check_parity`."""
        stack = self.lookup(name)
        if stack is None:
            raise MemoryError_(f"cannot seal parity of unknown buffer {name!r}")
        word = parity_word(stack)
        self._parity[name] = word
        return word

    def check_parity(self, name: str) -> bool:
        """Whether a sealed stack still matches its parity word.  True
        for never-sealed names (nothing to contradict)."""
        sealed = self._parity.get(name)
        if sealed is None:
            return True
        stack = self.lookup(name)
        if stack is None:
            return False
        return parity_word(stack) == sealed

    def clear_parity(self, name: str) -> None:
        self._parity.pop(name, None)

    def seal_abft(self, name: str, seal: object) -> None:
        """Attach an ABFT checksum seal to ``name``.  The storage holds
        the seal alongside the stack; the ABFT layer owns its algebra
        (:func:`repro.runtime.abft.seal_checksums`)."""
        self._abft[name] = seal

    def get_abft(self, name: str) -> Optional[object]:
        """The current ABFT seal of ``name`` (None when never sealed)."""
        return self._abft.get(name)

    def clear_abft(self, name: str) -> None:
        self._abft.pop(name, None)
