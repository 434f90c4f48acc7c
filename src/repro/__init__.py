"""repro: the Connection Machine Convolution Compiler, reproduced.

A full-system reproduction of Bromley, Heller, McNerney & Steele,
"Fortran at Ten Gigaflops: The Connection Machine Convolution Compiler"
(PLDI 1991): the Fortran 90 and Lisp front ends, the stencil recognizer,
the multistencil/ring-buffer register allocator and code generator, and
a cycle-level simulator of the CM-2 node datapath with the run-time
library (decomposition, halo exchange, strip mining) on top.

Quick start::

    import numpy as np
    from repro import CM2, MachineParams, CMArray, compile_fortran, apply_stencil

    machine = CM2(MachineParams(num_nodes=16))
    compiled = compile_fortran(
        "R = C1 * CSHIFT(X, 1, -1) + C2 * CSHIFT(X, 2, -1) + C3 * X"
        " + C4 * CSHIFT(X, 2, +1) + C5 * CSHIFT(X, 1, +1)"
    )
    x = CMArray.from_numpy("X", machine, np.random.rand(256, 256).astype("f4"))
    coeffs = {name: CMArray.from_numpy(name, machine,
                                       np.random.rand(256, 256).astype("f4"))
              for name in compiled.pattern.coefficient_names()}
    run = apply_stencil(compiled, x, coeffs, iterations=100)
    print(run.describe())
"""

from .compiler import (
    CompiledStencil,
    StencilCompileError,
    compile_defstencil,
    compile_fortran,
    compile_stencil,
)
from .machine import CM2, FULL_CM2, SIXTEEN_NODE, MachineParams
from .runtime import (
    CMArray,
    CMBatch,
    FaultError,
    FaultInjector,
    FaultStats,
    FilterCost,
    ResiliencePolicy,
    StencilRun,
    apply_stencil,
    apply_stencil_batch,
    make_stencil_function,
    make_subroutine,
)
from .stencil import StencilPattern, gallery
from . import testing

__version__ = "1.0.0"

__all__ = [
    "CM2",
    "CMArray",
    "CMBatch",
    "CompiledStencil",
    "FilterCost",
    "FULL_CM2",
    "FaultError",
    "FaultInjector",
    "FaultStats",
    "MachineParams",
    "ResiliencePolicy",
    "SIXTEEN_NODE",
    "StencilCompileError",
    "StencilPattern",
    "StencilRun",
    "apply_stencil",
    "apply_stencil_batch",
    "compile_defstencil",
    "make_stencil_function",
    "make_subroutine",
    "compile_fortran",
    "compile_stencil",
    "gallery",
    "testing",
    "__version__",
]
