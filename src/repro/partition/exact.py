"""Exact minimum-nonfaulty cover for small instances.

The open problem is conjectured NP-complete (paper Section 4, citing
D. Z. Chen), so no polynomial exact algorithm is expected; for small
fault sets, however, exhaustive search over set partitions is feasible
and gives the ground truth the heuristics are scored against.

Search space reduction: 4-adjacent faults must share a polygon (two
polygons at Manhattan distance 1 would violate the separation
requirement), so the search enumerates partitions of the *4-connected
fault components* rather than of individual faults; each part is then
covered by its minimal connected orthoconvex polygon.  Partitions whose
polygons overlap or come closer than the disabled-region separation of
2 are rejected.

Note the per-part polygon is itself a (tight) heuristic — the true
optimum could in principle use a non-minimal polygon to dodge a
separation conflict — so the result is exact over the "minimal polygon
per part" family, which covers every instance we have encountered and
all the paper's examples.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

from repro.errors import PartitionError
from repro.geometry.cells import CellSet
from repro.geometry.components import connected_components, set_distance
from repro.geometry.staircase import connect_orthoconvex
from repro.partition.evaluate import _MIN_SEPARATION, FaultCover

__all__ = ["exact_cover"]


def _set_partitions(n: int) -> Iterator[List[List[int]]]:
    """All set partitions of ``range(n)`` via restricted growth strings."""
    if n == 0:
        yield []
        return
    a = [0] * n

    def rec(i: int, m: int) -> Iterator[List[List[int]]]:
        if i == n:
            parts: List[List[int]] = [[] for _ in range(m + 1)]
            for idx, p in enumerate(a):
                parts[p].append(idx)
            yield parts
            return
        for p in range(m + 2):
            a[i] = p
            yield from rec(i + 1, max(m, p))

    yield from rec(1, 0)


def exact_cover(
    faults: CellSet,
    max_atoms: int = 9,
) -> FaultCover:
    """Exhaustive-search cover of a small fault set.

    Parameters
    ----------
    faults:
        The fault set (its 4-connected components are the search atoms).
    max_atoms:
        Refuse instances with more components than this — the partition
        count is the Bell number, which explodes quickly.

    Raises
    ------
    PartitionError
        If ``faults`` is empty or too large for exhaustive search.
    """
    if not faults:
        raise PartitionError("no faults to cover")
    atoms = connected_components(faults, connectivity=4)
    if len(atoms) > max_atoms:
        raise PartitionError(
            f"{len(atoms)} fault components exceed exact-search limit {max_atoms}"
        )

    best: FaultCover | None = None
    for parts in _set_partitions(len(atoms)):
        polygons: List[CellSet] = []
        for part in parts:
            group = atoms[part[0]]
            for k in part[1:]:
                group = group.union(atoms[k])
            polygons.append(connect_orthoconvex(group))
        if not _valid(polygons):
            continue
        cover = FaultCover.build(faults, polygons)
        if best is None or cover.num_nonfaulty < best.num_nonfaulty:
            best = cover
    if best is None:  # the single-polygon partition is always valid
        raise PartitionError("no valid cover found — separation floor too strict?")
    return best


def _valid(polygons: Sequence[CellSet]) -> bool:
    for i in range(len(polygons)):
        for j in range(i + 1, len(polygons)):
            if not polygons[i].isdisjoint(polygons[j]):
                return False
            if set_distance(polygons[i], polygons[j]) < _MIN_SEPARATION:
                return False
    return True
