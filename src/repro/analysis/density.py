"""Fault-density study: where the block model starts to break down.

The paper observes that its high enabled ratios are "in part due to the
fact that a random distribution tends to generate a set of small faulty
blocks" — a density effect.  This module quantifies the regime change:
as fault density grows, blocks merge, the largest block swallows an
outsized share of healthy nodes (a percolation-flavoured transition),
and the enabled subgraph eventually fragments.  The density benchmark
uses these metrics to map where the paper's refinement buys the most.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.analysis.experiment import trial_rngs
from repro.analysis.stats import Summary, summarize
from repro.core.pipeline import label_mesh
from repro.core.status import SafetyDefinition
from repro.faults.generators import uniform_random
from repro.geometry.cells import CellSet
from repro.geometry.components import connected_components
from repro.mesh.topology import Topology

__all__ = ["DensityPoint", "density_study"]


@dataclass(frozen=True)
class DensityPoint:
    """Aggregates for one fault density."""

    density: float
    f: int
    largest_block: Summary          # cells in the largest faulty block
    imprisoned_fraction: Summary    # nonfaulty-in-blocks / nonfaulty
    freed_fraction: Summary         # activated / nonfaulty-in-blocks
    enabled_components: Summary     # components of the enabled subgraph
    largest_enabled_fraction: Summary  # biggest component / enabled nodes


def _enabled_subgraph_stats(enabled: np.ndarray) -> tuple[int, float]:
    comps = connected_components(CellSet(enabled), connectivity=4)
    if not comps:
        return 0, 0.0
    sizes = sorted((len(c) for c in comps), reverse=True)
    return len(sizes), sizes[0] / sum(sizes)


def density_study(
    topology: Topology,
    densities: Sequence[float],
    trials: int = 10,
    definition: SafetyDefinition = SafetyDefinition.DEF_2B,
    seed: int = 0,
) -> List[DensityPoint]:
    """Sweep fault density and measure block growth and fragmentation.

    Parameters
    ----------
    topology:
        The machine under study.
    densities:
        Fault fractions (0..1) to sweep.
    trials:
        Independent patterns per density.
    definition:
        Phase-1 unsafe rule.
    seed:
        Root seed for reproducibility.
    """
    total = topology.num_nodes
    points: List[DensityPoint] = []
    for di, density in enumerate(densities):
        if not 0.0 <= density <= 1.0:
            raise ValueError(f"density must be in [0, 1], got {density}")
        f = int(round(density * total))
        largest: List[float] = []
        imprisoned: List[float] = []
        freed: List[float] = []
        n_comps: List[float] = []
        big_comp: List[float] = []
        for rng in trial_rngs(trials, seed + 7 * di):
            faults = uniform_random(topology.shape, f, rng)
            result = label_mesh(topology, faults, definition)
            nonfaulty = total - f
            largest.append(float(result.blocks.cells.stats[4].max(initial=0)))
            in_blocks = result.num_unsafe_nonfaulty
            imprisoned.append(in_blocks / nonfaulty if nonfaulty else 0.0)
            freed.append(
                result.num_activated / in_blocks if in_blocks else 1.0
            )
            ncomp, frac = _enabled_subgraph_stats(result.labels.enabled)
            n_comps.append(float(ncomp))
            big_comp.append(frac)
        points.append(
            DensityPoint(
                density=density,
                f=f,
                largest_block=summarize(largest),
                imprisoned_fraction=summarize(imprisoned),
                freed_fraction=summarize(freed),
                enabled_components=summarize(n_comps),
                largest_enabled_fraction=summarize(big_comp),
            )
        )
    return points
