"""The convolution compiler: register allocation and code generation."""

from .allocation import (
    UNIT_REG,
    ZERO_REG,
    AllocationError,
    RegisterAllocation,
    allocate,
)
from .codegen import (
    ExtraTerm,
    LinePattern,
    build_line_pattern,
    drain_gap,
    multiply_add_block,
)
from .fusion import fuse
from .integrated import (
    CompiledStatement,
    ProgramCompilation,
    compile_program,
)
from .driver import compile_defstencil, compile_fortran, compile_stencil
from .plan import CompiledStencil, StencilCompileError, WidthPlan, compile_pattern
from .ringbuf import (
    RingBuffer,
    build_rings,
    column_span,
    lcm_of,
    plan_ring_sizes,
    plan_ring_sizes_optimal,
)

__all__ = [
    "AllocationError",
    "CompiledStencil",
    "CompiledStatement",
    "ExtraTerm",
    "fuse",
    "ProgramCompilation",
    "compile_program",
    "LinePattern",
    "RegisterAllocation",
    "RingBuffer",
    "StencilCompileError",
    "UNIT_REG",
    "WidthPlan",
    "ZERO_REG",
    "allocate",
    "build_line_pattern",
    "build_rings",
    "column_span",
    "compile_defstencil",
    "compile_fortran",
    "compile_pattern",
    "compile_stencil",
    "drain_gap",
    "lcm_of",
    "multiply_add_block",
    "plan_ring_sizes",
    "plan_ring_sizes_optimal",
]
