"""Algorithm-based fault tolerance for the stacked working set.

Huang-Abraham style ABFT keeps checksum vectors alongside the data and
re-derives them after every compute step; corruption then shows up as a
nonzero *residual* instead of an invisible bit-flip.  The classical
construction sums rows and columns in floating point, but this runtime's
acceptance contract is *bit*-identity, and float addition neither
commutes with rounding nor localizes which bit flipped.  We therefore
work over GF(2): the checksum of a subgrid row is the XOR of its raw
float32 words (viewed as ``uint32``), and likewise per column.

The algebra that makes this forward-correcting:

* XOR is exact -- sealing and re-deriving the checksum of unchanged
  data always agree, so a nonzero residual *is* corruption, never
  rounding noise.
* A single flipped word at ``(r, c)`` of one tile violates exactly one
  row checksum (``r``) and one column checksum (``c``), and both
  residuals equal the flipped bit mask.  Intersecting the violated row
  and column localizes the word; XOR-ing the residual back restores the
  original bits exactly.  Forward recovery: zero rollback, zero replay.
* Damage that violates more than one row or column per tile (or leaves
  mismatched residual masks) is beyond forward correction; the caller
  falls back to the checkpoint/rollback ladder via
  :class:`~repro.runtime.faults.SdcUncorrectableError`.

A seal is a local of the engine loop that takes it: the loop seals a
result slab and verifies it within one iteration (or one temporal
block), so no seal outlives the slab state it covers.  The vectors are
tiny -- ``rows + cols`` words per node tile versus ``rows * cols`` data
words -- and the seal/verify passes are charged to the dedicated
``abft_cycles`` bucket of :class:`~repro.runtime.faults.FaultStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .faults import FaultGuard, FaultKind, SdcUncorrectableError

__all__ = [
    "AbftSeal",
    "col_parity",
    "row_parity",
    "seal_checksums",
    "verify_and_correct",
]


def _words(stack: np.ndarray) -> np.ndarray:
    """The raw 32-bit words of a float32 stack (aliasing view)."""
    if stack.dtype != np.float32:
        raise TypeError(
            f"ABFT checksums cover float32 stacks, got {stack.dtype}"
        )
    return stack.view(np.uint32)


def row_parity(stack: np.ndarray) -> np.ndarray:
    """Per-row XOR checksum: reduce the subgrid column axis (``-1``).

    Leading axes (node grid, batch, filter) are preserved, so one call
    covers a plain ``(gr, gc, rows, cols)`` stack and a batched
    ``(batch, gr, gc, rows, cols)`` slice alike.
    """
    return np.bitwise_xor.reduce(_words(stack), axis=-1)


def col_parity(stack: np.ndarray) -> np.ndarray:
    """Per-column XOR checksum: reduce the subgrid row axis (``-2``)."""
    return np.bitwise_xor.reduce(_words(stack), axis=-2)


@dataclass(frozen=True)
class AbftSeal:
    """The sealed row/column checksum vectors of one stack.

    ``row`` has the stack's shape with the last axis dropped (one word
    per subgrid row); ``col`` drops the second-to-last axis instead.
    ``shape`` pins the sealed stack's shape so a reshaped or
    reallocated buffer can never verify against a stale seal.
    """

    row: np.ndarray
    col: np.ndarray
    shape: Tuple[int, ...]


def seal_checksums(stack: np.ndarray) -> AbftSeal:
    """Derive and freeze the checksum vectors of ``stack`` as of now."""
    return AbftSeal(
        row=row_parity(stack),
        col=col_parity(stack),
        shape=tuple(stack.shape),
    )


def verify_and_correct(
    stack: np.ndarray,
    sealed: Optional[AbftSeal],
    *,
    site: str,
    guard: Optional[FaultGuard] = None,
) -> int:
    """Check ``stack`` against its seal; forward-correct what we can.

    Returns the number of corrected words (0 when the residuals are
    clean).  Each tile -- one ``(..., grid_row, grid_col)`` index -- is
    localized independently: a tile with exactly one violated row, one
    violated column, and equal residual masks has its word XOR-restored
    in place, bit-exactly.  Anything else raises
    :class:`~repro.runtime.faults.SdcUncorrectableError` for the
    rollback ladder.  Under ``guard``, every correction and every
    uncorrectable tile is recorded as a detected ``sdc`` event.
    """
    if sealed is None:
        raise SdcUncorrectableError(
            f"{site}: no ABFT seal to verify against"
        )
    if tuple(stack.shape) != sealed.shape:
        raise SdcUncorrectableError(
            f"{site}: stack shape {tuple(stack.shape)} does not match "
            f"sealed shape {sealed.shape}"
        )
    res_row = row_parity(stack) ^ sealed.row
    res_col = col_parity(stack) ^ sealed.col
    tile_bad = res_row.any(axis=-1) | res_col.any(axis=-1)
    if not tile_bad.any():
        return 0
    words = _words(stack)
    corrected = 0
    for tile_index in np.argwhere(tile_bad):
        tile = tuple(int(i) for i in tile_index)
        rows_bad = np.flatnonzero(res_row[tile])
        cols_bad = np.flatnonzero(res_col[tile])
        if len(rows_bad) == 1 and len(cols_bad) == 1:
            r = int(rows_bad[0])
            c = int(cols_bad[0])
            row_mask = np.uint32(res_row[tile][r])
            col_mask = np.uint32(res_col[tile][c])
            if row_mask == col_mask:
                # The residual IS the flip mask: one XOR restores the
                # original word bit-for-bit.
                words[tile + (r, c)] ^= row_mask
                corrected += 1
                if guard is not None:
                    guard.note_detected(
                        FaultKind.SDC.value,
                        site,
                        f"forward-corrected word ({r},{c}) of tile "
                        f"{tile}, flip mask {int(row_mask):#010x}",
                    )
                continue
        detail = (
            f"tile {tile}: violated rows "
            f"{[int(r) for r in rows_bad]}, cols "
            f"{[int(c) for c in cols_bad]}"
        )
        if guard is not None:
            guard.note_detected(
                FaultKind.SDC.value, site, f"uncorrectable: {detail}"
            )
        raise SdcUncorrectableError(
            f"{site}: multi-cell damage beyond forward correction "
            f"({detail}); falling back to the rollback ladder"
        )
    return corrected
