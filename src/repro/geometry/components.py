"""Connected components of cell sets.

Two connectivities matter in the paper:

* **4-connectivity** (mesh links) — used for *faulty blocks*, which are
  maximal sets of link-connected unsafe nodes, and

* **8-connectivity** (king moves) — used for *disabled regions*: the
  paper treats two disabled nodes whose closed unit squares share even a
  single corner point as part of one region (its Section 3 example puts
  faults ``(2,1)`` and ``(3,2)`` into one disabled region).

Components are labeled by a NumPy union-find over vertical runs.  A
mask is packed 64 cells to a word and cut into its maximal column runs
on those words (:func:`repro.geometry._bitplanes.scan_runs`); the
touching runs of neighbouring columns are found by interval overlap
(two binary searches per run), and the run graph is collapsed by
hooking roots and vectorized pointer jumping.  Every step costs time in
the words and the runs, not the cells, and a faulty block or a disabled
region meets each column in one run: a 1000 x 1000 block is 10^6 cells
but 17,034 words and 1,000 runs.  Components come out as a
:class:`CellTable` of grouped runs and lazy :class:`CellSet` slices of
it, so no per-cell array exists until a caller reads coordinates.  No per-cell
Python work; this is what makes block/region extraction cheap enough
for the per-trial hot path of large sweeps.  On the perfbench ``label``
workload (seed 4242, 20 s runs, 10 alternating pairs on a shared 2-CPU
host) cutting runs from words instead of from an ``np.nonzero`` member
scan raised ``work_per_s`` from 14.3M to 36.8M cells/s and lowered
``peak_rss_mb`` from 88.4 to 68.8 MB (``docs/algorithms.md`` §5.4).

:func:`connected_components_reference` keeps the original per-cell
breadth-first flood fill as the oracle the property tests pin the
union-find pass against bit-for-bit.  Both return components ordered by
their smallest row-major member, so results are deterministic.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.geometry._bitplanes import expand_runs, scan_runs
from repro.geometry.cells import CellSet
from repro.types import BoolGrid

__all__ = [
    "connected_components",
    "is_connected",
    "label_components",
    "Connectivity4",
    "Connectivity8",
]

#: Neighbour offsets for mesh-link (edge) adjacency.
Connectivity4 = ((1, 0), (-1, 0), (0, 1), (0, -1))

#: Neighbour offsets for king-move (edge or corner) adjacency.
Connectivity8 = (
    (1, 0), (-1, 0), (0, 1), (0, -1),
    (1, 1), (1, -1), (-1, 1), (-1, -1),
)

def _check_connectivity(connectivity: int) -> None:
    if connectivity not in (4, 8):
        raise ValueError(f"connectivity must be 4 or 8, got {connectivity}")


class _Runs(NamedTuple):
    """Maximal vertical runs in row-major order: run ``r`` holds the
    cells ``(x[r], y)`` for ``y0[r] <= y <= y1[r]``.  Once labeled, run
    ``r`` belongs to component ``comp[r]`` of ``0..count-1``; a vertical
    run is 4-connected, so it never straddles two components."""

    x: np.ndarray
    y0: np.ndarray
    y1: np.ndarray
    comp: np.ndarray = np.empty(0, dtype=np.int32)
    count: int = 0

    def lengths(self) -> np.ndarray:
        """Cell count of every run."""
        return self.y1 - self.y0 + 1

    def sizes(self) -> np.ndarray:
        """Cell count of every component."""
        return np.bincount(self.comp, self.lengths(), self.count).astype(np.int64)

    def boxes(self) -> np.ndarray:
        """Inclusive bounding boxes of every component as a ``(4, count)``
        array of rows ``x0, y0, x1, y1``, from one scatter reduction per
        row over the runs.  Components without runs get meaningless
        boxes."""
        boxes = np.full((4, self.count), -1, dtype=np.int64)
        boxes[:2] = 1 << 62
        np.minimum.at(boxes[0], self.comp, self.x)
        np.minimum.at(boxes[1], self.comp, self.y0)
        np.maximum.at(boxes[2], self.comp, self.x)
        np.maximum.at(boxes[3], self.comp, self.y1)
        return boxes


def _scan(planes: np.ndarray) -> _Runs:
    """The unlabeled runs of a mask or a stack of masks
    (:func:`~repro.geometry._bitplanes.scan_runs`)."""
    return _Runs(*scan_runs(planes))


def _run_edges(
    x: np.ndarray, y0: np.ndarray, y1: np.ndarray, h: int, connectivity: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Every pair ``(a, b)`` of touching runs with ``b`` in the column west
    of ``a``.

    The runs of column ``x - 1`` that touch run ``a`` form one contiguous
    slice: those ending at or after ``y0 - d`` and starting at or before
    ``y1 + d``, where ``d`` widens the interval by one for corner
    contact.  Two binary searches over the run keys ``x * (h + 2) + y``
    find it; the ``h + 2`` column stride keeps a widened query inside its
    own column, so ``(x, h - 1)`` never meets ``(x + 1, 0)``.  Between two
    columns the touching pairs form a monotone staircase, so there are
    fewer pairs than runs in the two columns together.
    """
    stride = h + 2
    d = 0 if connectivity == 4 else 1
    key0 = x.astype(np.int64, copy=False) * stride + y0
    key1 = key0 + (y1 - y0)
    lo = np.searchsorted(key1, key0 - (stride + d), side="left")
    hi = np.searchsorted(key0, key1 - (stride - d), side="right")
    counts = hi - lo
    a = np.repeat(np.arange(x.size), counts)
    b = np.arange(a.size) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return a, b


def _run_roots(a: np.ndarray, b: np.ndarray, nruns: int) -> np.ndarray:
    """The root of every run: the smallest run id of its component.

    Each round hooks the larger root of every edge whose endpoints still
    have different roots under the smaller one, then flattens the trees
    by pointer jumping (``parent = parent[parent]``).  Hooking roots, not
    endpoints, merges whole trees per round, so a serpentine component
    settles in a few rounds rather than one per link.  Every hook points
    down, so the surviving root is the component's minimum.
    """
    parent = np.arange(nruns)
    while a.size:
        ra, rb = parent[a], parent[b]
        split = ra != rb
        if not split.any():
            break
        a, b, ra, rb = a[split], b[split], ra[split], rb[split]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            grand = parent[parent]
            if (grand == parent).all():
                break
            parent = grand
    return parent


def _label_runs(runs: _Runs, h: int, connectivity: int) -> _Runs:
    """Union-find labeling of row-major runs on a grid of height ``h``.

    Adjacency, union-find and numbering all cost time proportional to
    the run count, so a rectangle of a million cells in a thousand
    columns joins a thousand runs.  Components are numbered
    ``0..count-1`` by their smallest row-major member.
    """
    nruns = runs.x.size
    if nruns == 0:
        return runs
    parent = _run_roots(*_run_edges(runs.x, runs.y0, runs.y1, h, connectivity), nruns)
    # Run ids increase in row-major order and a root is its component's
    # smallest run, so ranking the roots numbers the components by
    # first (smallest row-major) member.
    rank = np.cumsum(parent == np.arange(nruns), dtype=np.int32) - 1
    return runs._replace(comp=rank[parent], count=int(rank[-1]) + 1)


def label_components(mask: BoolGrid, connectivity: int = 4) -> Tuple[np.ndarray, int]:
    """Label the connected components of a boolean grid, vectorized.

    Union-find over *runs*: the mask is cut into maximal vertical runs
    (consecutive ``y`` at constant ``x``) on its 64-cell words; each run
    finds the slice of runs it touches in the column to its west with
    two binary searches over run keys; and the run graph is collapsed to
    per-run minima by hooking roots under smaller roots and pointer
    jumping (``parent = parent[parent]``).

    Parameters
    ----------
    mask:
        The boolean occupancy grid, indexed ``[x, y]``.
    connectivity:
        4 for mesh-link adjacency or 8 for king-move adjacency.

    Returns
    -------
    (labels, count)
        ``labels`` is an ``int32`` grid of the mask's shape holding
        ``-1`` for non-members and the component index for members;
        components are numbered ``0..count-1`` by their smallest
        row-major member, matching :func:`connected_components_reference`.
    """
    _check_connectivity(connectivity)
    labels = np.full(mask.shape, -1, dtype=np.int32)
    runs = _label_runs(_scan(mask), mask.shape[1], connectivity)
    labels[expand_runs(runs.x, runs.y0, runs.y1)] = np.repeat(runs.comp, runs.lengths())
    return labels, runs.count


def connected_components(cells: CellSet, connectivity: int = 4) -> List[CellSet]:
    """Split ``cells`` into maximal connected components.

    Parameters
    ----------
    cells:
        The set to decompose.
    connectivity:
        4 for mesh-link adjacency (faulty blocks) or 8 for king-move
        adjacency (disabled regions).

    Returns
    -------
    list of CellSet
        Components ordered by their smallest row-major member, so the
        result is deterministic.
    """
    _check_connectivity(connectivity)
    runs = _label_runs(_Runs(*cells._run_arrays()), cells.shape[1], connectivity)
    table = CellTable.group(cells.shape, runs)
    return [table.cellset(k) for k in range(len(table))]


def _subset_runs(runs: _Runs, sub: _Runs, h: int) -> Optional[_Runs]:
    """The runs ``sub`` of a subset of the labeled ``runs``' cells (the
    faults, say), each labeled with the component of the run holding it,
    or ``None`` if some cell of ``sub`` lies in no run.

    Both are maximal row-major runs on a grid of height ``h``, so the sub
    runs inside run ``r`` are one contiguous slice: those starting at or
    after its start and ending at or before its end, found by two binary
    searches per run of ``runs``.  The slices are disjoint and in order,
    so they cover every sub run exactly when their sizes add up to the
    sub run count."""
    sub_x, run_x = sub.x * h, runs.x * h
    lo = np.searchsorted(sub_x + sub.y0, run_x + runs.y0, side="left")
    hi = np.searchsorted(sub_x + sub.y1, run_x + runs.y1, side="right")
    inside = np.maximum(hi - lo, 0)
    if inside.sum() != sub.x.size:
        return None
    return sub._replace(comp=np.repeat(runs.comp, inside), count=runs.count)


class CellTable:
    """Cell sets ``0..n-1`` of one grid as columns: ``stats`` holds each
    set's inclusive bounding box (rows ``x0, y0, x1, y1``; zeros if empty)
    and size, ``runs`` its maximal vertical runs grouped by set (set ``k``
    holds runs ``ptr[k]:ptr[k + 1]`` of ``(x, y0, y1, ptr)``, row-major).
    Built without runs, the sets fill their boxes (one run per column,
    expanded on first read).  Runs and members are cached, so checkers
    reading every set share one expansion."""

    def __init__(self, shape: Tuple[int, int], stats: np.ndarray, runs=None):
        self.shape, self.stats, self._runs = shape, stats, runs

    @classmethod
    def group(cls, shape: Tuple[int, int], runs: _Runs) -> "CellTable":
        """The components ``0..count-1`` of the labeled ``runs``: a stable
        sort groups the runs (unless they are grouped), a group's first and
        last runs give its ``x`` extent, one ``reduceat`` its ``y`` extent."""
        comp, x, y0, y1 = runs.comp, runs.x, runs.y0, runs.y1
        if (comp[1:] < comp[:-1]).any():
            order = np.argsort(comp, kind="stable")
            x, y0, y1 = x[order], y0[order], y1[order]
        counts = np.bincount(comp, minlength=runs.count)
        ptr = np.concatenate(([0], np.cumsum(counts)))
        held = counts > 0
        first = ptr[:-1][held]
        stats = np.zeros((5, runs.count), dtype=np.int64)
        if first.size:
            stats[:, held] = (
                x[first],
                np.minimum.reduceat(y0, first),
                x[ptr[1:][held] - 1],
                np.maximum.reduceat(y1, first),
                np.add.reduceat(y1 - y0 + 1, first),
            )
        return cls(shape, stats, (x, y0, y1, ptr))

    @classmethod
    def of(cls, shape: Tuple[int, int], sets: Sequence[CellSet]) -> "CellTable":
        """The table of the cell set objects ``sets``: each one's size,
        bounding box and runs, however it was built."""
        stats = [(*s.bounding_box(), len(s)) if s else (0,) * 5 for s in sets]
        stats = np.array(stats, dtype=np.int64).reshape(-1, 5).T
        runs = [s._run_arrays() for s in sets]
        empty = np.zeros(0, dtype=np.int64)
        x, y0, y1 = (np.concatenate([empty, *(r[i] for r in runs)]) for i in range(3))
        return cls(shape, stats, (x, y0, y1, np.cumsum([0] + [r[0].size for r in runs])))

    def __len__(self) -> int:
        return self.stats.shape[1]

    @cached_property
    def runs(self) -> Tuple[np.ndarray, ...]:
        """The grouped runs ``(x, y0, y1, ptr)``."""
        if self._runs is not None:
            return self._runs
        x0, y0, x1, y1, _ = self.stats
        ids, x = expand_runs(np.arange(len(self)), x0, x1)
        return x, y0[ids], y1[ids], np.searchsorted(ids, np.arange(len(self) + 1))

    @cached_property
    def members(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every member as int64 ``(ids, xs, ys)``, tagged with the index
        of its set and ordered by ``(id, x, y)``."""
        x, y0, y1, ptr = self.runs
        ids = np.repeat(np.arange(len(self)), np.diff(ptr))
        tagged = (np.repeat(ids, y1 - y0 + 1), *expand_runs(x, y0, y1))
        ids, xs, ys = (a.astype(np.int64, copy=False) for a in tagged)
        for a in (ids, xs, ys):
            a.setflags(write=False)
        return ids, xs, ys

    def cellset(self, k: int) -> CellSet:
        """Set ``k``, lazily built on its slice of the table's runs."""
        *box, n = self.stats[:, k].tolist()
        if self._runs is None:
            return CellSet._lazy(self.shape, tuple(box), n)
        x, y0, y1, ptr = self._runs
        lo, hi = int(ptr[k]), int(ptr[k + 1])
        return CellSet._lazy(self.shape, tuple(box), n, (x, y0, y1, lo, hi))


def connected_components_reference(
    cells: CellSet, connectivity: int = 4
) -> List[CellSet]:
    """The per-cell BFS flood fill — the oracle for
    :func:`connected_components`, which returns the identical list."""
    _check_connectivity(connectivity)
    offsets = Connectivity4 if connectivity == 4 else Connectivity8

    mask = cells.mask
    w, h = mask.shape
    seen = np.zeros_like(mask)
    components: List[CellSet] = []

    xs, ys = np.nonzero(mask)
    for sx, sy in zip(xs.tolist(), ys.tolist()):
        if seen[sx, sy]:
            continue
        comp = np.zeros_like(mask)
        queue = deque([(sx, sy)])
        seen[sx, sy] = True
        comp[sx, sy] = True
        while queue:
            x, y = queue.popleft()
            for dx, dy in offsets:
                nx, ny = x + dx, y + dy
                if 0 <= nx < w and 0 <= ny < h and mask[nx, ny] and not seen[nx, ny]:
                    seen[nx, ny] = True
                    comp[nx, ny] = True
                    queue.append((nx, ny))
        components.append(CellSet(comp))
    return components


def is_connected(cells: CellSet, connectivity: int = 4) -> bool:
    """Whether ``cells`` is non-empty and forms a single component."""
    if not cells:
        return False
    _check_connectivity(connectivity)
    runs = _label_runs(_Runs(*cells._run_arrays()), cells.shape[1], connectivity)
    return runs.count == 1


def set_distance(a: CellSet, b: CellSet) -> int:
    """Minimum Manhattan distance between members of two non-empty sets.

    This is the paper's ``d(A, B) = min over u in A, v in B of d(u, v)``:
    plain Manhattan distance, with no torus wrap.  Computed with a
    vectorized all-pairs reduction over the members of both sets, after
    one full-grid ``np.nonzero`` per set.  That suits one pair of small
    sets; checking all pairs of many regions this way costs quadratic
    grid scans, which is why
    :func:`repro.core.theorems.check_region_separation` sorts every
    region's cells once instead.
    """
    if not a or not b:
        raise ValueError("set_distance of an empty cell set")
    ax, ay = np.nonzero(a.mask)
    bx, by = np.nonzero(b.mask)
    d = np.abs(ax[:, None] - bx[None, :]) + np.abs(ay[:, None] - by[None, :])
    return int(d.min())
