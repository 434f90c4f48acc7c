"""High-level compilation entry points for the three front ends.

Compiled plans are memoized: a stencil statement is compiled once per
``(pattern, params, widths, strategy)`` and the same
:class:`~repro.compiler.plan.CompiledStencil` (immutable after
construction) is returned to every caller, so iterated runs, sweeps, and
repeated subroutine calls skip recompilation entirely.

Both memoization tables are shared, thread-safe services
(:class:`~repro.compiler.cache.SyncCache`): the stencil service compiles
from many tenants' worker threads at once, concurrent misses on a key
run one compilation, and hit/miss telemetry is tallied per tenant scope
-- ``compile_cache_info(tenant=...)`` reads one tenant's counters, and
clearing one tenant's scope never perturbs another's.  Plans themselves
are tenant-agnostic: the key carries everything that determines the
output (degraded-machine health signatures included), never who asked.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence, Tuple

from ..fortran.parser import parse_assignment, parse_subroutine
from ..fortran.recognizer import recognize_assignment, recognize_subroutine
from ..lisp.defstencil import parse_defstencil, parse_defstencil_with_types
from ..machine.params import MachineParams
from ..stencil.multistencil import multistencil_widths
from ..stencil.pattern import StencilPattern
from .cache import ALL_SCOPES, ANONYMOUS, SyncCache
from .plan import CompiledStencil, compile_pattern

#: Memoized compilations, keyed on everything that determines the output.
_PLAN_CACHE = SyncCache("plans", limit=512)

#: Memoized block-depth selections (temporal blocking), keyed like the
#: plan cache plus the run geometry the choice depends on.
_DEPTH_CACHE = SyncCache("depths", limit=2048)


def clear_compile_cache(tenant: object = ALL_SCOPES) -> None:
    """Reset the compile-driver caches.

    With no argument: drop every memoized plan and depth selection and
    every scope's counters (the historical full reset, mainly for
    tests).  With ``tenant=<id>``: reset only that tenant's hit/miss
    telemetry in both caches -- the shared entries and every other
    tenant's counters are untouched.
    """
    _PLAN_CACHE.clear(tenant)
    _DEPTH_CACHE.clear(tenant)


def compile_cache_info(tenant: object = ALL_SCOPES) -> Tuple[int, int, int]:
    """``(hits, misses, entries)`` of the compiled-plan cache.

    By default the counters aggregate every scope; ``tenant=<id>`` reads
    one tenant's telemetry (entries stay global -- the table is shared).
    """
    return _PLAN_CACHE.info(tenant)


def depth_cache_info(tenant: object = ALL_SCOPES) -> Tuple[int, int, int]:
    """``(hits, misses, entries)`` of the block-depth selection cache.

    Chaos runs lean on this: a degraded retry of the same problem must
    not re-price the depth sweep, so resilient-path regressions show up
    here as unexpected misses.  Scoped like :func:`compile_cache_info`.
    """
    return _DEPTH_CACHE.info(tenant)


def _maybe_verify(compiled: CompiledStencil) -> CompiledStencil:
    """Statically verify a fresh compilation when ``RS_VERIFY=1``.

    Off by default (verification costs a symbolic walk of every op in
    every width plan); the CI ``verify`` job and paranoid users turn it
    on to prove each plan before it is cached or executed.  Raises
    :class:`repro.verify.VerificationError` on any error-severity
    diagnostic.
    """
    if os.environ.get("RS_VERIFY") == "1":
        # Imported lazily: the verify package pulls in the front end.
        from ..verify import assert_verified

        assert_verified(compiled)
    return compiled


def compile_stencil(
    pattern: StencilPattern,
    params: Optional[MachineParams] = None,
    widths: Sequence[int] = multistencil_widths(),
    *,
    strategy: str = "paper",
    tenant: Optional[str] = ANONYMOUS,
) -> CompiledStencil:
    """Compile a stencil pattern (any front end's output), memoized.

    ``tenant`` scopes the cache telemetry (never the cache contents):
    the service passes each job's tenant id so per-tenant hit rates are
    readable through ``compile_cache_info(tenant=...)``.
    """
    params = params or MachineParams()
    try:
        # Pattern equality ignores the display name; key on it too so a
        # cached plan never reports another statement's label.
        key = (pattern, pattern.name, params, tuple(widths), strategy)
        hash(key)
    except TypeError:
        # An unhashable pattern or parameter set compiles uncached.
        return _maybe_verify(
            compile_pattern(pattern, params, widths, strategy=strategy)
        )
    return _PLAN_CACHE.get_or_compute(
        key,
        lambda: _maybe_verify(
            compile_pattern(pattern, params, widths, strategy=strategy)
        ),
        scope=tenant,
    )


def _health_signature(machine) -> Optional[tuple]:
    """A hashable fingerprint of the machine state that changes the
    depth economics: its rerouted links (orientation included -- detour
    cost depends on which way the band runs).  None for a healthy
    machine, so all healthy machines of any shape share cache entries
    exactly as before hard faults existed."""
    if machine is None:
        return None
    health = getattr(machine, "health", None)
    if health is None or not health.rerouted_links:
        return None
    return (
        machine.shape,
        tuple(
            sorted(
                (tuple(sorted(key)), health.dead_links[key].orientation)
                for key in health.rerouted_links
                if key in health.dead_links
            )
        ),
    )


def select_block_depth(
    compiled: CompiledStencil,
    subgrid_shape: Tuple[int, int],
    iterations: int,
    *,
    batch: int = 1,
    max_depth: Optional[int] = None,
    machine=None,
    tenant: Optional[str] = ANONYMOUS,
) -> int:
    """Pick one filter's temporal block depth for an iterated run over
    ``batch`` grids, memoized.

    Plan-level selection: the choice depends only on the compiled plan
    (pattern and machine parameters), the subgrid geometry, the
    iteration count and the batch, so it is resolved once per
    combination and reused by every call -- the same economics as plan
    memoization.  Delegates to the deep-halo comm/compute model in
    :mod:`repro.runtime.blocking`; returns 1 when blocking does not pay.

    Remap-aware: when the (optional) ``machine`` carries rerouted links,
    their detour surcharge enters the cost model and the cache key
    carries the health fingerprint -- a selection priced on healthy
    wires is never replayed onto a degraded machine, and vice versa.
    """
    # Imported lazily: the runtime layer imports this module's siblings.
    from ..runtime.blocking import best_block_depth

    def sweep() -> int:
        return best_block_depth(
            compiled, subgrid_shape, iterations, max_depth, machine, batch
        )

    try:
        key = (
            compiled.pattern,
            compiled.params,
            tuple(subgrid_shape),
            iterations,
            batch,
            max_depth,
            _health_signature(machine),
        )
        hash(key)
    except TypeError:
        return sweep()
    return _DEPTH_CACHE.get_or_compute(key, sweep, scope=tenant)


def select_batch_block_depths(
    filters: Sequence[CompiledStencil],
    subgrid_shape: Tuple[int, int],
    iterations: int,
    batch: int,
    *,
    machine=None,
    tenant: Optional[str] = ANONYMOUS,
) -> Tuple[int, ...]:
    """Per-filter block depths for a whole batched filter set, memoized
    on the set.

    Each filter's pick is its one-filter optimum
    (:func:`select_block_depth`), but the engine runs the set as one
    schedule: its filters share exchanges, and a blocked filter beside
    them changes what they share.  So the picks stand only when the
    set's schedule at those depths prices below the set at depth 1;
    otherwise every filter resolves to 1.  The depth cache is keyed on
    the set (a ``"batchset"`` entry over every member's pattern):
    re-submitting the same workload -- the service's steady state --
    resolves every depth in one cache hit instead of F sweeps.
    Unblockable filters resolve to depth 1.
    """
    # Imported lazily: the runtime layer imports this module's siblings.
    from ..runtime.blocking import BlockList

    filters = tuple(filters)

    def sweep() -> Tuple[int, ...]:
        picks = tuple(
            select_block_depth(
                compiled,
                subgrid_shape,
                iterations,
                batch=batch,
                machine=machine,
                tenant=tenant,
            )
            for compiled in filters
        )
        ones = (1,) * len(filters)
        if len(filters) > 1 and picks != ones:
            def price(depths):
                return BlockList(
                    filters, subgrid_shape, iterations, depths
                ).seconds(batch, machine)

            if not price(picks) < price(ones):
                return ones
        return picks

    try:
        key = (
            "batchset",
            tuple(
                (compiled.pattern, compiled.pattern.name)
                for compiled in filters
            ),
            filters[0].params if filters else None,
            tuple(subgrid_shape),
            iterations,
            batch,
            _health_signature(machine),
        )
        hash(key)
    except TypeError:
        return sweep()
    return _DEPTH_CACHE.get_or_compute(key, sweep, scope=tenant)


def compile_fortran(
    source: str,
    params: Optional[MachineParams] = None,
    widths: Sequence[int] = multistencil_widths(),
) -> CompiledStencil:
    """Compile Fortran source: either an isolated stencil subroutine
    (the paper's second version) or a bare assignment statement.

    The source is treated as a subroutine if it contains the SUBROUTINE
    keyword, otherwise as a single assignment.
    """
    if "SUBROUTINE" in source.upper():
        pattern = recognize_subroutine(parse_subroutine(source))
    else:
        pattern = recognize_assignment(parse_assignment(source))
    return compile_stencil(pattern, params, widths)


def compile_defstencil(
    source: str,
    params: Optional[MachineParams] = None,
    widths: Sequence[int] = multistencil_widths(),
) -> CompiledStencil:
    """Compile a Lisp ``defstencil`` form (the paper's first version).

    Accepts both the 4-element form and the paper's 5-element form with
    the type list.
    """
    try:
        pattern = parse_defstencil_with_types(source)
    except Exception:
        pattern = parse_defstencil(source)
    return compile_stencil(pattern, params, widths)
