"""Measurement, reporting, and extrapolation."""

from .breakdown import CycleBreakdown, breakdown_run
from .chaos import ChaosReport, ChaosTrial, run_campaign, run_trial
from .flops import (
    FlopAccounting,
    account,
    blocked_redundant_points,
)
from . import roofline
from .stability import (
    gravity_wave_courant,
    is_von_neumann_stable,
    leapfrog_stability_limit,
    leapfrog_theta,
    max_amplification,
    standing_wave_amplitude,
    symbol,
)
from .sweeps import PAPER_SUBGRIDS, paper_iterations, run_cell, table1_sweep
from .tables import format_comparison, format_table
from .timing import RateReport, extrapolate_mflops, report, resimulated_gflops

__all__ = [
    "CycleBreakdown",
    "FlopAccounting",
    "breakdown_run",
    "PAPER_SUBGRIDS",
    "paper_iterations",
    "run_cell",
    "gravity_wave_courant",
    "is_von_neumann_stable",
    "leapfrog_stability_limit",
    "leapfrog_theta",
    "max_amplification",
    "standing_wave_amplitude",
    "symbol",
    "roofline",
    "table1_sweep",
    "ChaosReport",
    "ChaosTrial",
    "run_campaign",
    "run_trial",
    "RateReport",
    "account",
    "blocked_redundant_points",
    "extrapolate_mflops",
    "format_comparison",
    "format_table",
    "report",
    "resimulated_gflops",
]
