"""The seeded source corpus of the compile-cold workload.

Sources are spelled here, from tap lists, and never through
``repro.fortran.printer``: a printer change must not change what the
benchmark compiles.  Each entry is a Fortran assignment, a Fortran
SUBROUTINE, or a Lisp ``defstencil`` form of 4-13 array-coefficient taps
of radius 1-3, using CSHIFT, EOSHIFT or both (one kind per dimension),
in keyword or positional spelling.  The shape of entry ``i`` (front end,
tap count, radius, boundary) cycles through a fixed schedule, so every
seed compiles the same mix; the seed draws the offsets, spellings and
fill values.  No two entries share a pattern, so every compile misses
the plan cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Entry shapes cycle through every (kind, taps, radius, boundary)
#: below; one in four entries is a Lisp form.
KINDS = ("assignment", "subroutine", "assignment", "lisp")
TAP_COUNTS = tuple(range(4, 14))
RADII = (1, 2, 3)
BOUNDARIES = ("torus", "fill", "mixed")
FILL_VALUES = (0.0, 1.5, -0.5, 2.0)


@dataclass(frozen=True)
class Entry:
    """One source and the taps it must compile to."""

    kind: str  # "assignment" | "subroutine" | "lisp"
    source: str
    offsets: Tuple[Tuple[int, int], ...]
    coefficients: Tuple[str, ...]
    modes: Tuple[str, str]  # per dimension: "C" (CSHIFT) or "E" (EOSHIFT)
    fill: float


def _offsets(rng, taps: int, radius: int) -> List[Tuple[int, int]]:
    """``taps`` distinct offsets within ``radius``, at least one on it."""
    span = range(-radius, radius + 1)
    ring = [(dy, dx) for dy in span for dx in span
            if max(abs(dy), abs(dx)) == radius]
    inner = [(dy, dx) for dy in span for dx in span
             if max(abs(dy), abs(dx)) < radius]
    first = ring[rng.integers(len(ring))]
    rest = [o for o in ring + inner if o != first]
    picks = rng.choice(len(rest), size=taps - 1, replace=False)
    chosen = [first] + [rest[i] for i in picks]
    order = rng.permutation(len(chosen))
    return [chosen[i] for i in order]


def _fortran_shift(arg: str, kind: str, dim: int, amount: int,
                   fill: float, keyword: bool) -> str:
    name = "CSHIFT" if kind == "C" else "EOSHIFT"
    boundary = kind == "E" and fill != 0.0
    if keyword:
        text = f"{name}({arg}, DIM={dim}, SHIFT={amount:+d}"
        return text + (f", BOUNDARY={fill})" if boundary else ")")
    text = f"{name}({arg}, {dim}, {amount:+d}"
    return text + (f", {fill})" if boundary else ")")


def _fortran_term(offset, modes, fill, keyword, rows_first) -> str:
    dy, dx = offset
    steps = [(1, dy), (2, dx)] if rows_first else [(2, dx), (1, dy)]
    text = "X"
    for dim, amount in steps:
        if amount:
            text = _fortran_shift(text, modes[dim - 1], dim, amount,
                                  fill, keyword)
    return text


def _lisp_term(offset, modes, fill, rows_first) -> str:
    dy, dx = offset
    steps = [(1, dy), (2, dx)] if rows_first else [(2, dx), (1, dy)]
    text = "x"
    for dim, amount in steps:
        if amount:
            name = "cshift" if modes[dim - 1] == "C" else "eoshift"
            extra = f" {fill}" if modes[dim - 1] == "E" and fill else ""
            text = f"({name} {text} {dim} {amount:+d}{extra})"
    return text


def _render(kind, index, offsets, modes, fill, rng) -> str:
    keyword = bool(rng.integers(2))
    rows_first = bool(rng.integers(2))
    n = len(offsets)
    if kind == "lisp":
        params = " ".join(f"c{i}" for i in range(1, n + 1))
        terms = "\n       ".join(
            f"(* c{i} {_lisp_term(o, modes, fill, rows_first)})"
            for i, o in enumerate(offsets, start=1)
        )
        types = "\n  (single-float single-float)" if keyword else ""
        return (
            f"(defstencil k{index} (r x {params}){types}\n"
            f"  (:= r (+ {terms})))"
        )
    terms = [
        f"C{i} * {_fortran_term(o, modes, fill, keyword, rows_first)}"
        for i, o in enumerate(offsets, start=1)
    ]
    if kind == "assignment":
        return "R = " + " + ".join(terms)
    names = ", ".join(f"C{i}" for i in range(1, n + 1))
    body = " &\n  + ".join(terms)
    return (
        f"SUBROUTINE K{index} (R, X, {names})\n"
        f"REAL, ARRAY(:, :) :: R, X, {names}\n"
        f"R = {body}\n"
        f"END\n"
    )


def _modes(rng, boundary: str) -> Tuple[str, str]:
    if boundary == "torus":
        return ("C", "C")
    if boundary == "fill":
        return ("E", "E")
    return ("C", "E") if rng.integers(2) else ("E", "C")


def shape_of(index: int):
    """The fixed (kind, taps, radius, boundary) of entry ``index``.

    Every 12 consecutive entries hold each (kind, radius) pair once, so
    a run that stops mid-schedule compiles almost the same mix as one
    that does not.
    """
    kind = KINDS[index % len(KINDS)]
    radius = RADII[index % len(RADII)]
    block = index // (len(KINDS) * len(RADII))
    taps = TAP_COUNTS[block % len(TAP_COUNTS)]
    boundary = BOUNDARIES[block % len(BOUNDARIES)]
    if kind == "lisp" and boundary == "mixed":
        boundary = "torus"
    return kind, min(taps, (2 * radius + 1) ** 2), radius, boundary


class Corpus:
    """An endless, seeded stream of distinct entries."""

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng([seed, 0xC0DE])
        self._seen = set()
        self._index = 0

    def __iter__(self):
        return self

    def __next__(self) -> Entry:
        kind, taps, radius, boundary = shape_of(self._index)
        while True:
            rng = self._rng
            offsets = tuple(_offsets(rng, taps, radius))
            modes = _modes(rng, boundary)
            fill = (
                float(FILL_VALUES[rng.integers(len(FILL_VALUES))])
                if "E" in modes else 0.0
            )
            signature = (kind, offsets, modes, fill)
            if signature not in self._seen:
                break
        self._seen.add(signature)
        source = _render(kind, self._index, offsets, modes, fill, rng)
        self._index += 1
        names = tuple(f"C{i}" for i in range(1, len(offsets) + 1))
        return Entry(kind, source, offsets, names, modes, fill)


def with_moved_tap(entry: Entry) -> str:
    """``entry``'s source with its first tap moved one row: a plan
    compiled from it has the wrong taps (the self-test's defect)."""
    offsets = list(entry.offsets)
    dy, dx = offsets[0]
    for moved in ((dy + 1, dx), (dy - 1, dx)):
        if moved not in offsets:
            offsets[0] = moved
            break
    rng = np.random.default_rng(0)
    return _render(entry.kind, 0, offsets, entry.modes, entry.fill, rng)


def coefficient_env(rng, shape, count: int, taps: int) -> Dict[str, np.ndarray]:
    """Positive coefficient arrays ``C1..C<count>``, any ``taps`` of
    which sum to about one per point, so iterates stay in float32's
    normal range."""
    return {
        f"C{i}": (rng.uniform(0.5, 1.5, shape) / taps).astype(np.float32)
        for i in range(1, count + 1)
    }


def tap_list(pattern) -> Tuple[Tuple[Tuple[int, int], Optional[str]], ...]:
    """A compiled pattern's taps as ``(offset, coefficient name)``."""
    return tuple(
        (tuple(tap.offset), (tap.coeff.name or "").upper() or None)
        for tap in pattern.taps
    )
