"""Reproduction driver for the paper's Figure 5.

The paper's simulation study (Section 5): on a 100x100 mesh with ``f``
faults drawn uniformly at random, ``0 <= f <= 100``,

* **Figure 5 (a)/(b)** — the averages of the maximum numbers of rounds
  needed to determine the faulty blocks, and then the disabled regions,
  as functions of ``f``;
* **Figure 5 (c)/(d)** — for each faulty block that can be reduced
  (i.e. holds at least one nonfaulty node), the average percentage of
  enabled nodes among its unsafe-but-nonfaulty nodes.

The global rounds-to-quiescence of one labeling run *is* the maximum
over its blocks of the per-block round count (blocks converge
independently), so :attr:`~repro.core.pipeline.LabelingResult.rounds_phase1`
/ ``rounds_phase2`` are exactly the paper's per-trial maxima.

The paper shows two panels per metric without labelling the pair; both
Definition 2a and 2b appear in its Section 3, so this driver sweeps the
definition (and optionally the topology) and reports every combination.

The unit of work is a *batch*: the trials of one ``f`` value, split so
that a batch holds at most ``_BATCH_CELLS`` cells (and at least one
plane).  Each trial draws its faults from its own generator, exactly as
a per-trial run would, and :func:`repro.core.batch.label_batch` labels
the batch as one ``(T, width, height)`` stack of planes and reduces it
to the per-trial rows with array operations.  Rows are aggregated in
trial order, so every float is summed in the same order as by one
``label_mesh`` call per trial, and the tables are identical to that
path's (the tests keep it as the oracle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.analysis.executor import run_cells
from repro.analysis.experiment import trial_rng
from repro.analysis.stats import Summary, summarize
from repro.analysis.tables import format_table
from repro.core.batch import label_batch
from repro.core.pipeline import label_mesh  # noqa: F401 - tracers patch it by name
from repro.core.status import SafetyDefinition
from repro.faults.generators import draw_uniform
from repro.faults.generators import uniform_random  # noqa: F401 - tracers patch it by name
from repro.mesh.topology import Mesh2D, Topology

__all__ = ["Fig5Point", "Fig5Curve", "run_fig5", "DEFAULT_F_VALUES"]

#: The paper sweeps 0 <= f <= 100 on a 100x100 mesh.
DEFAULT_F_VALUES: Tuple[int, ...] = tuple(range(0, 101, 10))


@dataclass(frozen=True)
class Fig5Point:
    """Aggregates of one ``f`` value across trials."""

    f: int
    rounds_fb: Summary        # Fig 5 (a)/(b), faulty-block curve
    rounds_dr: Summary        # Fig 5 (a)/(b), disabled-region curve
    enabled_ratio: Summary    # Fig 5 (c)/(d), per reducible block
    num_blocks: Summary
    num_regions: Summary


@dataclass(frozen=True)
class Fig5Curve:
    """One full sweep (one panel of the figure)."""

    definition: SafetyDefinition
    topology: Topology
    trials: int
    seed: int
    points: Tuple[Fig5Point, ...]

    def as_table(self) -> str:
        """The panel as a plain-text table (what the bench prints)."""
        rows = []
        for p in self.points:
            rows.append(
                [
                    p.f,
                    p.rounds_fb.mean,
                    p.rounds_dr.mean,
                    100.0 * p.enabled_ratio.mean,
                    p.num_blocks.mean,
                    p.num_regions.mean,
                ]
            )
        title = (
            f"Figure 5 — {type(self.topology).__name__} "
            f"{self.topology.width}x{self.topology.height}, "
            f"Definition {self.definition.value}, {self.trials} trials"
        )
        return format_table(
            ["f", "rounds(FB)", "rounds(DR)", "enabled %", "#blocks", "#regions"],
            rows,
            title=title,
        )


#: Decorrelates the per-f root seeds (same constant as always).
_F_SEED_STRIDE = 7919

#: Cells labeled per batch: a batch holds ``_BATCH_CELLS // nodes``
#: trials of one ``f`` value (at least one), so peak memory does not grow
#: with the trial count.
_BATCH_CELLS = 1 << 18

#: One trial's contribution: (rounds1, rounds2, per-block ratios, #blocks, #regions).
_TrialRow = Tuple[float, float, List[float], float, float]


def _fig5_batch(
    task: Tuple[Topology, SafetyDefinition, str, int, int, int, int, int, int],
) -> List[_TrialRow]:
    """The rows of trials ``start .. stop - 1`` of one ``f`` value."""
    topo, definition, method, f, fi, start, stop, trials, seed = task
    faulty = np.zeros((stop - start, topo.num_nodes), dtype=bool)
    for plane, ti in zip(faulty, range(start, stop)):
        draw_uniform(plane, f, trial_rng(trials, seed + _F_SEED_STRIDE * fi, ti))
    faulty = faulty.reshape(-1, *topo.shape)
    out = label_batch(topo, faulty, definition, method)
    return list(
        zip(
            out.rounds_phase1.astype(float).tolist(),
            out.rounds_phase2.astype(float).tolist(),
            out.enabled_ratios,
            out.num_blocks.astype(float).tolist(),
            out.num_regions.astype(float).tolist(),
        )
    )


def run_fig5(
    definition: SafetyDefinition = SafetyDefinition.DEF_2B,
    topology: Topology | None = None,
    f_values: Sequence[int] = DEFAULT_F_VALUES,
    trials: int = 20,
    seed: int = 20010423,
    method: str = "auto",
    jobs: int = 1,
) -> Fig5Curve:
    """Run the Figure-5 sweep for one definition/topology combination.

    Parameters
    ----------
    definition:
        Phase-1 unsafe rule for this panel.
    topology:
        Defaults to the paper's 100x100 mesh.
    f_values:
        Fault counts to sweep.
    trials:
        Independent fault patterns per ``f``.
    seed:
        Root seed; each (f, trial) pair gets its own spawned stream.
    method:
        Labeling kernel, ``"dense"``, ``"frontier"`` or ``"auto"`` (see
        :func:`repro.core.pipeline.label_mesh`); ``"auto"`` applies
        :func:`~repro.core.pipeline.choose_kernel` to each batch.
    jobs:
        Worker processes for the trial batches, dispatched through the
        warm chunked executor of :mod:`repro.analysis.executor`; any
        value yields identical results because every trial's generator
        is derived from its grid position, not the schedule.
    """
    topo = topology if topology is not None else Mesh2D(100, 100)
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    per_batch = max(1, _BATCH_CELLS // topo.num_nodes)
    tasks = [
        (topo, definition, method, f, fi, lo, min(lo + per_batch, trials), trials, seed)
        for fi, f in enumerate(f_values)
        for lo in range(0, trials, per_batch)
    ]
    batches, _ = run_cells(_fig5_batch, tasks, jobs)
    rows = [row for batch in batches for row in batch]
    return _curve(definition, topo, f_values, trials, seed, rows)


def _curve(
    definition: SafetyDefinition,
    topology: Topology,
    f_values: Sequence[int],
    trials: int,
    seed: int,
    rows: Sequence[_TrialRow],
) -> Fig5Curve:
    """The curve of a sweep's trial ``rows``, in (f, trial) order."""
    points: List[Fig5Point] = []
    for fi, f in enumerate(f_values):
        rounds_fb: List[float] = []
        rounds_dr: List[float] = []
        ratios: List[float] = []
        blocks: List[float] = []
        regions: List[float] = []
        for r1, r2, block_ratios, nb, nr in rows[fi * trials : (fi + 1) * trials]:
            rounds_fb.append(r1)
            rounds_dr.append(r2)
            ratios.extend(block_ratios)
            blocks.append(nb)
            regions.append(nr)
        points.append(
            Fig5Point(
                f=f,
                rounds_fb=summarize(rounds_fb),
                rounds_dr=summarize(rounds_dr),
                enabled_ratio=summarize(ratios),
                num_blocks=summarize(blocks),
                num_regions=summarize(regions),
            )
        )
    return Fig5Curve(
        definition=definition,
        topology=topology,
        trials=trials,
        seed=seed,
        points=tuple(points),
    )
