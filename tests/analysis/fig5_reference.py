"""The per-trial Figure-5 path: the oracle for the batched ``run_fig5``.

One full :func:`~repro.core.pipeline.label_mesh` per trial, reading the
five Figure-5 quantities off its :class:`LabelingResult`, with the same
per-trial fault streams.  ``run_fig5``, which labels the trials of one
``f`` value as one stack of planes, must reproduce these rows and
tables exactly.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.analysis.experiment import trial_rng
from repro.analysis.fig5 import _F_SEED_STRIDE, Fig5Curve, _curve, _TrialRow
from repro.core.pipeline import label_mesh
from repro.core.status import SafetyDefinition
from repro.faults.generators import uniform_random
from repro.mesh.topology import Topology


def fig5_trial_reference(
    topo: Topology,
    definition: SafetyDefinition,
    f: int,
    fi: int,
    ti: int,
    trials: int,
    seed: int,
) -> _TrialRow:
    """Trial ``ti`` of the ``fi``-th fault count ``f``, labeled alone;
    ``None`` for a torus trial with no planar view."""
    rng = trial_rng(trials, seed + _F_SEED_STRIDE * fi, ti)
    faults = uniform_random(topo.shape, f, rng)
    try:
        result = label_mesh(topo, faults, definition, backend="vectorized")
    except ValueError as exc:  # a torus trial with no planar view is left out
        if "cannot unwrap torus labels" not in str(exc):
            raise
        return None
    return (
        float(result.rounds_phase1),
        float(result.rounds_phase2),
        result.per_block_enabled_ratios(),
        float(len(result.blocks)),
        float(len(result.regions)),
    )


def fig5_rows_reference(
    topo: Topology,
    definition: SafetyDefinition,
    f_values: Sequence[int],
    trials: int,
    seed: int,
) -> List[_TrialRow]:
    """Every trial's row, in (f, trial) order."""
    return [
        fig5_trial_reference(topo, definition, f, fi, ti, trials, seed)
        for fi, f in enumerate(f_values)
        for ti in range(trials)
    ]


def run_fig5_reference(
    definition: SafetyDefinition,
    topology: Topology,
    f_values: Sequence[int],
    trials: int,
    seed: int,
) -> Fig5Curve:
    """The curve ``run_fig5`` must return for the same arguments."""
    rows = fig5_rows_reference(topology, definition, f_values, trials, seed)
    return _curve(definition, topology, f_values, trials, seed, rows)
