"""Static verification of compiled stencil plans and stencil Fortran.

Three cooperating analyzers, all purely static (no plan is ever
executed):

* :mod:`repro.verify.dataflow` -- symbolic execution of the abstract op
  streams (use-before-def, clobbered live slots, writeback/reversal
  timing, store sets, cost-model divergence);
* :mod:`repro.verify.lifetimes` -- ring-buffer live ranges over a full
  LCM period (overlaps, double-booked or unused registers, undersized
  rings, bad unroll factors);
* :mod:`repro.verify.lint` -- source-span diagnostics for the Fortran
  front end (``repro lint``), plus :mod:`repro.verify.aliasing` for the
  run-time call boundary;
* :mod:`repro.verify.concurrency` -- the ``repro racecheck`` analyzer:
  lock/guard discipline of repro's own threaded control plane
  (RS701-RS706), validated at run time by the opt-in
  :mod:`repro.verify.lockdep` instrumented locks (``RS_LOCKDEP=1``).

``verify_plan`` is wired into the compile driver behind ``RS_VERIFY=1``
so every freshly compiled plan is proven before it is cached; the
``repro verify`` subcommand (and the CI ``verify`` job) sweep the whole
stencil gallery across every width and both ring-sizing strategies.

The ``RS###`` error-code catalogue lives in ``docs/INTERNALS.md``
section 10.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..machine.params import MachineParams
from ..stencil.multistencil import multistencil_widths
from .aliasing import AliasingError, check_aliasing
from .concurrency import (
    RaceCheckResult,
    analyze_sources,
    predicted_lock_graph,
    racecheck_paths,
)
from .dataflow import analyze_dataflow, check_register_usage
from .diagnostics import (
    Diagnostic,
    has_errors,
    plan_error,
    render_diagnostics,
    with_context,
)
from .lifetimes import analyze_lifetimes
from .lint import DEFAULT_MAX_HALO, lint_path, lint_source

__all__ = [
    "AliasingError",
    "DEFAULT_MAX_HALO",
    "RaceCheckResult",
    "VerificationError",
    "analyze_dataflow",
    "analyze_lifetimes",
    "analyze_sources",
    "assert_verified",
    "check_aliasing",
    "check_register_usage",
    "has_errors",
    "lint_path",
    "lint_source",
    "predicted_lock_graph",
    "racecheck_paths",
    "render_diagnostics",
    "verify_compiled",
    "verify_gallery",
    "verify_plan",
]


class VerificationError(Exception):
    """A compiled plan failed static verification (``RS_VERIFY=1``)."""

    def __init__(self, diagnostics: List[Diagnostic]) -> None:
        self.diagnostics = diagnostics
        lines = [f"{len(diagnostics)} static verification failure(s):"]
        lines += [f"  {d.describe()}" for d in diagnostics[:10]]
        if len(diagnostics) > 10:
            lines.append(f"  ... and {len(diagnostics) - 10} more")
        super().__init__("\n".join(lines))


def verify_plan(
    plan,
    params: Optional[MachineParams] = None,
    *,
    label: Optional[str] = None,
) -> List[Diagnostic]:
    """Run every static analyzer over one width plan.

    Returns the combined diagnostics (empty for a provably well-formed
    plan).  A plan too mangled to walk at all yields a single ``RS405``
    diagnostic rather than an exception, so mutation tests and the CI
    gate always get a diagnosis.
    """
    params = params or MachineParams()
    try:
        diagnostics = analyze_dataflow(plan, params)
        diagnostics += analyze_lifetimes(plan.allocation, params)
        diagnostics += check_register_usage(plan)
    except Exception as exc:  # noqa: BLE001 -- diagnose, don't crash
        diagnostics = [
            plan_error(
                "RS405",
                f"plan structure unanalyzable ({type(exc).__name__}: {exc})",
            )
        ]
    return with_context(diagnostics, label)


def verify_compiled(compiled) -> List[Diagnostic]:
    """Verify every width plan of a compiled stencil."""
    label = compiled.pattern.name or "stencil"
    diagnostics: List[Diagnostic] = []
    for width, plan in compiled.plans.items():
        diagnostics += verify_plan(
            plan, compiled.params, label=f"{label} width {width}"
        )
    return diagnostics


def assert_verified(compiled) -> None:
    """Raise :class:`VerificationError` if any plan fails verification."""
    diagnostics = verify_compiled(compiled)
    if has_errors(diagnostics):
        raise VerificationError(diagnostics)


def verify_gallery(
    params: Optional[MachineParams] = None,
    *,
    strategies: Sequence[str] = ("paper", "optimal"),
    widths: Sequence[int] = multistencil_widths(),
) -> Dict[Tuple[str, str], List[Diagnostic]]:
    """Sweep the stencil gallery through the verifier.

    Every gallery pattern x every feasible width in ``widths`` x every
    ring-sizing strategy; returns diagnostics keyed by
    ``(pattern name, strategy)`` (empty lists for clean compilations).
    """
    from ..compiler.plan import compile_pattern
    from ..stencil import gallery

    params = params or MachineParams()
    patterns = gallery.table1_patterns() + (
        gallery.asymmetric5(),
        gallery.border_demo(),
    )
    results: Dict[Tuple[str, str], List[Diagnostic]] = {}
    for pattern in patterns:
        for strategy in strategies:
            compiled = compile_pattern(
                pattern, params, widths, strategy=strategy
            )
            results[(pattern.name, strategy)] = verify_compiled(compiled)
    return results
