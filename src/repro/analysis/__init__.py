"""Experiment harness: seeded trials, sweeps, statistics and tables.

:mod:`repro.analysis.fig5` is the driver that regenerates the paper's
Figure 5; the rest is the generic machinery the benchmarks share.
"""

from repro._lazy import lazy_exports

# Eager: ``sweep`` shares its submodule's name (see repro._lazy).
from repro.analysis.sweep import CellFailure, SweepPoint, sweep

__all__ = [
    "DEFAULT_F_VALUES",
    "DensityPoint",
    "density_study",
    "Fig5Curve",
    "Fig5Point",
    "Summary",
    "CellFailure",
    "SweepPoint",
    "format_table",
    "run_fig5",
    "run_trials",
    "summarize",
    "sweep",
    "trial_rng",
    "trial_rngs",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "density": ("DensityPoint", "density_study"),
    "experiment": ("run_trials", "trial_rng", "trial_rngs"),
    "fig5": ("DEFAULT_F_VALUES", "Fig5Curve", "Fig5Point", "run_fig5"),
    "stats": ("Summary", "summarize"),
    "tables": ("format_table",),
})
