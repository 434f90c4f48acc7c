"""Useful-flop accounting, per the paper's counting rules.

"Only useful floating-point operations are counted; for example,
computation of one result for the [5-point] pattern is counted as 9
floating-point operations (5 multiplies and 4 adds), despite the fact
that it is executed on the CM-2 as 5 multiply-add steps, because one of
the adds is not really useful (it merely adds a product to zero)."
(paper section 7)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..stencil.pattern import StencilPattern


@dataclass(frozen=True)
class FlopAccounting:
    """Work accounting for one stencil applied to one point set.

    ``redundant_points`` covers temporal blocking: the halo ring's
    locally recomputed neighbor points.  They are issued and executed
    but never useful -- each one duplicates a point some neighbor also
    computes -- so they dilute usefulness without adding useful flops.
    """

    pattern_name: str
    points: int
    iterations: int
    useful_per_point: int
    issued_ma_per_point: int
    redundant_points: int = 0

    @property
    def useful_flops(self) -> int:
        return self.useful_per_point * self.points * self.iterations

    @property
    def redundant_flops(self) -> int:
        """Flops spent recomputing neighbors' points in the shrinking
        deep-halo ring (zero when unblocked)."""
        return self.useful_per_point * self.redundant_points

    @property
    def issued_flops(self) -> int:
        """Flops the hardware executes: 2 per multiply-add cycle."""
        return 2 * self.issued_ma_per_point * (
            self.points * self.iterations + self.redundant_points
        )

    @property
    def usefulness(self) -> float:
        """Fraction of issued flops that are useful: (2k-1)/2k for a
        k-coefficient stencil, further diluted by any redundant
        halo-ring points."""
        return self.useful_flops / self.issued_flops


def account(
    pattern: StencilPattern, points: int, iterations: int = 1
) -> FlopAccounting:
    """Build the flop accounting for ``points`` outputs of a pattern."""
    return FlopAccounting(
        pattern_name=pattern.name or "stencil",
        points=points,
        iterations=iterations,
        useful_per_point=pattern.useful_flops_per_point(),
        issued_ma_per_point=pattern.issued_multiply_adds_per_point(),
    )


def blocked_redundant_points(
    subgrid_shape: Tuple[int, int],
    pad: int,
    iterations: int,
    depth: int,
    nodes: int = 1,
) -> int:
    """Extra points computed per temporally blocked run, machine-wide.

    Sub-iteration ``t`` of a ``steps``-deep block writes the subgrid
    plus a ``(steps - 1 - t) * pad``-deep ghost ring; every ghost point
    duplicates a neighbor's interior point.  Depth 1 (or pad 0) is
    exactly zero.
    """
    # Imported here: analysis sits above runtime, but flops stays
    # import-light for the table/doc generators that only need account().
    from ..runtime.blocking import block_steps, sub_iteration_shapes

    rows, cols = subgrid_shape
    extra = 0
    for steps in block_steps(iterations, depth):
        for shape in sub_iteration_shapes(subgrid_shape, pad, steps):
            extra += shape[0] * shape[1] - rows * cols
    return extra * nodes


def account_blocked(
    pattern: StencilPattern,
    subgrid_shape: Tuple[int, int],
    iterations: int,
    depth: int,
    nodes: int = 1,
) -> FlopAccounting:
    """Flop accounting for a temporally blocked iterated run: useful
    work is unchanged, the halo ring's recomputation shows up as
    ``redundant_points``."""
    rows, cols = subgrid_shape
    pad = pattern.border_widths().max_width
    return FlopAccounting(
        pattern_name=pattern.name or "stencil",
        points=rows * cols * nodes,
        iterations=iterations,
        useful_per_point=pattern.useful_flops_per_point(),
        issued_ma_per_point=pattern.issued_multiply_adds_per_point(),
        redundant_points=blocked_redundant_points(
            subgrid_shape, pad, iterations, depth, nodes
        ),
    )


def account_batch(
    patterns,
    subgrid_shape: Tuple[int, int],
    batch: int,
    iterations: int = 1,
    nodes: int = 1,
    depths=None,
) -> Tuple[FlopAccounting, ...]:
    """Flop accounting for a batched multi-convolution, one entry per
    filter.

    Useful work scales with the batch -- every entry's every point is a
    distinct output -- and so does the temporal-blocking halo ring's
    redundant recomputation (each entry runs its own blocks).  The
    amortized costs of batching (shared halo exchanges, once-per-batch
    coefficient exchanges) are communication, not flops, so they do not
    appear here; see
    :class:`~repro.runtime.batch.StencilRun` for those.
    """
    rows, cols = subgrid_shape
    if depths is None:
        depths = tuple(1 for _ in patterns)
    accounts = []
    for pattern, depth in zip(patterns, depths):
        pad = pattern.border_widths().max_width
        redundant = (
            blocked_redundant_points(
                subgrid_shape, pad, iterations, depth, nodes
            )
            * batch
            if depth > 1
            else 0
        )
        accounts.append(
            FlopAccounting(
                pattern_name=pattern.name or "stencil",
                points=rows * cols * nodes * batch,
                iterations=iterations,
                useful_per_point=pattern.useful_flops_per_point(),
                issued_ma_per_point=pattern.issued_multiply_adds_per_point(),
                redundant_points=redundant,
            )
        )
    return tuple(accounts)
