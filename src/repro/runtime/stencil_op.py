"""The user-facing stencil application entry point.

``apply_stencil`` does what the paper's run-time library does for one
call: allocate temporary halo storage, perform the up-front neighbor
exchange, then drive every node's subgrid through the strip-mined
compiled plans -- and returns a complete accounting of where the time
went.  It is the 1x1 case of the engine in :mod:`repro.runtime.batch`:
one filter over a source with no leading axes, through the same loops
(unblocked, temporally blocked, exact, and the guarded recovery ladder)
and the same :class:`StencilRun` record.

Iterated runs can additionally be *temporally blocked*: a halo ``T``
times deeper is exchanged once per block of ``T`` iterations, and the
whole block runs locally on a ping-pong buffer pair, each sub-iteration
consuming one ``pad`` of the remaining ghost depth (see
:mod:`repro.runtime.blocking`).  Blocking changes the exchange count --
``ceil(iterations / T)`` deep exchanges instead of ``iterations``
shallow ones -- but not a single result bit.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from ..compiler.plan import CompiledStencil
from ..verify.aliasing import ensure_no_aliasing
from .batch import StencilRun, run_stencil
from .cm_array import CMArray, intact_stack
from .executor import check_arrays, check_finite_arrays
from .faults import FaultInjector, ResiliencePolicy

# Not called here: perfbench's tracer wraps these by this module's
# attributes and still looks them up; the engine in .batch calls the
# tap, exchange, ABFT and depth-selection functions now.
from ..compiler.driver import select_block_depth
from .abft import seal_checksums, verify_and_correct
from .executor import machine_execute_blocked, machine_execute_fast, node_execute_fast
from .halo import exchange_halo, exchange_halo_deep


def apply_stencil(
    compiled: CompiledStencil,
    source: CMArray,
    coefficients: Optional[Dict[str, CMArray]] = None,
    result: Union[CMArray, str, None] = None,
    *,
    iterations: int = 1,
    exact: bool = False,
    block_depth: Union[int, str] = 1,
    check_finite: bool = False,
    faults: Optional[FaultInjector] = None,
    resilience: Optional[ResiliencePolicy] = None,
    abft: bool = False,
    tenant: Optional[str] = None,
) -> StencilRun:
    """Apply a compiled stencil to a distributed array.

    Args:
        compiled: output of :func:`repro.compiler.compile_stencil` (or
            the Fortran/defstencil drivers).
        source: the shifted data array (``X`` in the paper).
        coefficients: coefficient arrays by statement name (``C1``...).
        result: the result array, its name, or None to create one named
            after the statement's left-hand side.
        iterations: how many times to apply the stencil.  The result of
            iteration *k* is the source of iteration *k+1*: before every
            iteration after the first, the halos are re-exchanged from
            the previous result, exactly as ``iterations`` sequential
            single calls would.  The source array itself is never
            modified; after the run, ``result`` holds the final iterate.
        exact: run the cycle-stepped datapath instead of the vectorized
            fast path, which runs the whole node grid as one stacked
            array operation per tap.  Numerics are bit-identical either
            way.
        block_depth: temporal block depth ``T``.  ``1`` (the default)
            exchanges once per iteration; an int > 1 exchanges a
            ``T * pad``-deep halo once per block of ``T`` iterations and
            runs each block locally on ping-pong buffers; ``"auto"``
            picks the depth with the lowest modeled elapsed time (see
            :func:`repro.compiler.driver.select_block_depth`).  Depths
            are clamped to what the subgrid supports; blocking requires
            the fast path and silently resolves to 1 in exact mode.
            Results are bit-identical at every depth.
        check_finite: validate up front that the source, coefficient,
            and fused extra-term arrays contain no NaN/Inf, raising
            :class:`~repro.runtime.faults.NonFiniteInputError` naming
            the offending array instead of silently propagating them
            through ``iterations`` applications.
        faults: a seeded
            :class:`~repro.runtime.faults.FaultInjector` for chaos
            runs.  Supplying one (or ``resilience``) switches the run
            onto the guarded path: checksummed, retried exchanges, a
            parity-sealed blocked executor, periodic checkpoints with
            rollback-and-replay, and the graceful-degradation ladder
            (blocked -> fast -> exact, all bit-identical).  The run's
            :class:`~repro.runtime.faults.FaultStats` rides on the
            returned :attr:`StencilRun.fault_stats`.
        resilience: detection/recovery knobs for the guarded path (a
            :class:`~repro.runtime.faults.ResiliencePolicy`); defaults
            apply when only ``faults`` is given.
        abft: shorthand that switches the run onto the guarded path
            with :attr:`ResiliencePolicy.abft` enabled -- row/column
            checksums sealed over the result stack every iteration (or
            temporal block), verified before any consumer reads it,
            single corrupted words forward-corrected in place (see
            :mod:`repro.runtime.abft`).  Composes with ``resilience``
            (the policy is upgraded via ``dataclasses.replace``) and
            with ``faults`` (required for injecting
            :attr:`~repro.runtime.faults.FaultKind.SDC`).
        tenant: tenant id scoping the compile-driver cache telemetry
            (the stencil service passes each job's tenant; results and
            cache *contents* are tenant-agnostic either way).

    Returns:
        a :class:`StencilRun` with the result and full cost accounting.

    Raises :class:`~repro.runtime.executor.ExecutionSetupError` when an
    array does not match the statement or a node's buffer has been
    detached from its array's machine-wide stack.
    """
    if iterations < 1:
        raise ValueError("iterations must be positive")
    machine = source.machine
    coefficients = coefficients or {}
    if result is None:
        result = compiled.pattern.result
    if isinstance(result, str):
        result = CMArray(result, machine, source.global_shape)
    check_arrays(compiled, source, coefficients, result)
    ensure_no_aliasing(compiled, source, coefficients, result)
    if check_finite:
        check_finite_arrays(compiled, source, coefficients)
    return run_stencil(
        (compiled,),
        source.name,
        intact_stack(machine, source.name),
        result,
        (intact_stack(machine, result.name),),
        (result.name,),
        coefficients,
        iterations=iterations,
        exact=exact,
        block_depth=block_depth,
        faults=faults,
        resilience=resilience,
        abft=abft,
        tenant=tenant,
    )
