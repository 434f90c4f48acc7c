"""Elementwise array passes outside the convolution compiler's scope.

The Gordon Bell seismic code adds its tenth term (data from two time
steps back) "separately" -- a stock elementwise multiply-add pass -- and
its unoptimized main loop performs "two assignment statements to shift
the time-step data into the correct variables" -- whole-array copies.
These passes run at the stock slicewise rate, not through the microcode
loops, which is exactly why the 3x-unrolled loop that eliminates the
copies runs at 14.88 instead of 11.62 gigaflops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..machine.params import MachineParams
from .cm_array import CMArray


@dataclass(frozen=True)
class ElementwiseRun:
    """Cost accounting for one elementwise pass (per node, per call)."""

    operation: str
    cycles: int
    useful_flops_per_node: int
    host_seconds: float

    def seconds(self, params: MachineParams) -> float:
        return params.seconds(self.cycles) + self.host_seconds


def _points(array: CMArray) -> int:
    rows, cols = array.subgrid_shape
    return rows * cols


def add_scaled(
    result: CMArray,
    base: CMArray,
    coeff: CMArray,
    data: CMArray,
    params: MachineParams,
) -> ElementwiseRun:
    """``result = base + coeff * data``, elementwise (the tenth term).

    Cost per point: two register loads, one multiply-add with the
    coefficient streaming from memory, one store.
    """
    result.stacked[...] = (
        base.stacked + (coeff.stacked * data.stacked).astype(np.float32)
    ).astype(np.float32)
    points = _points(result)
    cycles = points * (3 * params.memory_access_cycles + 1)
    return ElementwiseRun(
        operation="add_scaled",
        cycles=cycles,
        useful_flops_per_node=2 * points,  # one multiply + one add per point
        host_seconds=params.host_halfstrip_s,
    )


def copy_array(
    dst: CMArray, src: CMArray, params: MachineParams
) -> ElementwiseRun:
    """``dst = src``: the time-step shuffle the unrolled loop eliminates.

    Cost per point: one load and one store; no useful flops at all --
    pure overhead against the flop rate.
    """
    dst.stacked[...] = src.stacked
    points = _points(dst)
    cycles = points * (2 * params.memory_access_cycles)
    return ElementwiseRun(
        operation="copy",
        cycles=cycles,
        useful_flops_per_node=0,
        host_seconds=params.host_halfstrip_s,
    )
