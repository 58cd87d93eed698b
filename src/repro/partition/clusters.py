"""Fault-clustering heuristic for the open partition problem.

Groups the faults by transitive proximity (Chebyshev distance at most a
threshold ``t``), builds the minimal orthoconvex polygon of each group,
and repairs separation violations by merging offending groups.  Sweeping
``t`` over all useful values and keeping the cheapest valid cover gives
a strong, fast heuristic: small thresholds favour many tight polygons,
large thresholds converge to the single-polygon baseline.

Covers respect the same guarantee the paper proves for disabled
regions — pairwise Manhattan separation of at least 2 — so they remain
drop-in fault regions for the routing layer.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import PartitionError
from repro.geometry.cells import CellSet
from repro.geometry.components import set_distance
from repro.geometry.staircase import connect_orthoconvex
from repro.partition.evaluate import _MIN_SEPARATION, FaultCover
from repro.types import Coord

__all__ = ["cluster_cover"]


def _group_by_threshold(coords: List[Coord], t: int) -> List[List[Coord]]:
    """Transitive closure of 'Chebyshev distance <= t' as fault groups."""
    n = len(coords)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            dx = abs(coords[i][0] - coords[j][0])
            dy = abs(coords[i][1] - coords[j][1])
            if max(dx, dy) <= t:
                parent[find(i)] = find(j)
    groups: dict[int, List[Coord]] = {}
    for i, c in enumerate(coords):
        groups.setdefault(find(i), []).append(c)
    return list(groups.values())


def _polygons_for_groups(
    shape, groups: Sequence[Sequence[Coord]]
) -> List[CellSet]:
    """Build per-group polygons, merging groups until separation holds."""
    parts = [list(g) for g in groups]
    while True:
        polys = [
            connect_orthoconvex(CellSet.from_coords(shape, g)) for g in parts
        ]
        # Find the first violating pair (overlap or too close) and merge it.
        merged = False
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                too_close = (
                    not polys[i].isdisjoint(polys[j])
                    or set_distance(polys[i], polys[j]) < _MIN_SEPARATION
                )
                if too_close:
                    parts[i] = parts[i] + parts[j]
                    del parts[j]
                    merged = True
                    break
            if merged:
                break
        if not merged:
            return polys


def cluster_cover(faults: CellSet) -> FaultCover:
    """Best proximity-clustering cover of a fault set.

    Sweeps the clustering threshold over every distinct pairwise
    Chebyshev distance (plus the single-cluster baseline) and returns
    the cover with the fewest nonfaulty nodes.

    Raises
    ------
    PartitionError
        If ``faults`` is empty.
    """
    if not faults:
        raise PartitionError("no faults to cover")
    coords = faults.coords()
    xs = np.array([c[0] for c in coords])
    ys = np.array([c[1] for c in coords])
    cheb = np.maximum(
        np.abs(xs[:, None] - xs[None, :]), np.abs(ys[:, None] - ys[None, :])
    )
    thresholds = sorted(set(cheb[np.triu_indices(len(coords), k=1)].tolist()))
    # t=0 means "every fault its own group"; the repair loop will merge
    # whatever violates separation, so it is always a valid starting point.
    candidates = [0] + [int(t) for t in thresholds]

    best: FaultCover | None = None
    for t in candidates:
        groups = _group_by_threshold(coords, t)
        polys = _polygons_for_groups(faults.shape, groups)
        cover = FaultCover.build(faults, polys)
        if best is None or cover.num_nonfaulty < best.num_nonfaulty:
            best = cover
    assert best is not None
    return best
