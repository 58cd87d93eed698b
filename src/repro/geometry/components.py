"""Connected components of cell sets.

Two connectivities matter in the paper:

* **4-connectivity** (mesh links) — used for *faulty blocks*, which are
  maximal sets of link-connected unsafe nodes, and

* **8-connectivity** (king moves) — used for *disabled regions*: the
  paper treats two disabled nodes whose closed unit squares share even a
  single corner point as part of one region (its Section 3 example puts
  faults ``(2,1)`` and ``(3,2)`` into one disabled region).

Components are labeled by a NumPy union-find over vertical runs: one
pass over the row-major member scan cuts the cells into maximal column
runs, the touching runs of neighbouring columns are found by interval
overlap (two binary searches per run), and the run graph is collapsed
by hooking roots and vectorized pointer jumping.  After the first pass
every step costs time in the number of runs, not cells — and a faulty
block or a disabled region meets each column in one run.  No per-cell
Python work; this is what makes block/region extraction cheap enough
for the per-trial hot path of large sweeps.

:func:`connected_components_reference` keeps the original per-cell
breadth-first flood fill as the oracle the property tests pin the
union-find pass against bit-for-bit.  Both return components ordered by
their smallest row-major member, so results are deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import List, NamedTuple, Tuple

import numpy as np

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
    """The vertical runs of a row-major member scan, in scan order.

    Run ``r`` holds members ``start[r] .. start[r] + length[r] - 1``: the
    cells ``(x[r], y)`` for ``y0[r] <= y <= y1[r]``.  Once labeled, run
    ``r`` belongs to component ``comp[r]`` of ``0..count-1``; a vertical
    run is 4-connected, so it never straddles two components."""

    start: np.ndarray
    length: np.ndarray
    x: np.ndarray
    y0: np.ndarray
    y1: np.ndarray
    comp: np.ndarray = np.empty(0, dtype=np.int32)
    count: int = 0

    def member_comps(self) -> np.ndarray:
        """``comp_of[i]``, the component of member ``i``."""
        return np.repeat(self.comp, self.length)

    def sizes(self) -> np.ndarray:
        """Member count of every component."""
        return np.bincount(self.comp, self.length, self.count).astype(np.int64)

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


def _scan_runs(xs: np.ndarray, ys: np.ndarray) -> _Runs:
    """Cut a row-major member scan into its maximal vertical runs,
    unlabeled.  Members are sorted by x then y, so a new run starts at
    each column change or y gap."""
    n = xs.size
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return _Runs(empty, empty, empty, empty, empty)
    new_run = np.empty(n, dtype=bool)
    new_run[0] = True
    np.logical_or(xs[1:] != xs[:-1], ys[1:] != ys[:-1] + 1, out=new_run[1:])
    start = new_run.nonzero()[0]
    length = np.empty_like(start)
    np.subtract(start[1:], start[:-1], out=length[:-1])
    length[-1] = n - start[-1]
    y0 = ys[start]
    return _Runs(start, length, xs[start], y0, y0 + (length - 1))


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


def _label_runs(
    xs: np.ndarray, ys: np.ndarray, shape: Tuple[int, int], connectivity: int
) -> _Runs:
    """Union-find labeling of a member scan at run granularity.

    ``xs``/``ys`` must be the row-major member scan of a mask (exactly
    what ``np.nonzero`` returns).  One pass over the members cuts them
    into vertical runs; everything after that — adjacency, union-find,
    numbering — costs time proportional to the run count, so a
    rectangle of a million cells in a thousand columns joins a thousand
    runs.  Components are numbered ``0..count-1`` by their smallest
    row-major member.
    """
    runs = _scan_runs(xs, ys)
    nruns = runs.start.size
    if nruns == 0:
        return runs
    parent = _run_roots(*_run_edges(runs.x, runs.y0, runs.y1, shape[1], connectivity), nruns)
    # Run ids increase in scan order and a root is its component's
    # smallest run, so ranking the roots numbers the components by
    # first (smallest row-major) member.
    rank = np.cumsum(parent == np.arange(nruns), dtype=np.int32) - 1
    return runs._replace(comp=rank[parent], count=int(rank[-1]) + 1)


def _label_coords(
    xs: np.ndarray, ys: np.ndarray, shape: Tuple[int, int], connectivity: int
) -> Tuple[np.ndarray, int]:
    """Union-find labeling in coordinate space (see :func:`_label_runs`).

    Returns ``(comp_of, count)`` where ``comp_of[i]`` is the component
    index of member ``i``; components are numbered ``0..count-1`` by
    their smallest row-major member.
    """
    runs = _label_runs(xs, ys, shape, connectivity)
    return runs.member_comps(), runs.count


def label_components(mask: BoolGrid, connectivity: int = 4) -> Tuple[np.ndarray, int]:
    """Label the connected components of a boolean grid, vectorized.

    Union-find over *runs*: member cells are grouped into maximal
    vertical runs (consecutive ``y`` at constant ``x``) with a single
    pass over the row-major member scan; each run finds the slice of
    runs it touches in the column to its west with two binary searches
    over run keys; and the run graph is collapsed to per-run minima by
    hooking roots under smaller roots and pointer jumping
    (``parent = parent[parent]``).

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
    xs, ys = np.nonzero(mask)
    comp_of, count = _label_coords(xs, ys, mask.shape, connectivity)
    labels[xs, ys] = comp_of
    return labels, count


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
    xs, ys = cells._coords()
    runs = _label_runs(xs, ys, cells.shape, connectivity)
    return _lazy_components(cells.shape, xs, ys, runs)


def _fault_runs(runs: _Runs, fx: np.ndarray, fy: np.ndarray, h: int) -> _Runs:
    """The row-major scan ``fx``/``fy`` of some members (the faults, say)
    as one-cell runs, each labeled with the component of the member run
    that holds it.  Every scanned cell must lie in some member run; one
    binary search over the run keys finds it."""
    at = np.searchsorted(runs.x * h + runs.y0, fx * h + fy, side="right") - 1
    ones = np.ones_like(fx)
    return _Runs(np.arange(fx.size), ones, fx, fy, fy, runs.comp[at], runs.count)


def _lazy_components(
    shape: Tuple[int, int], xs: np.ndarray, ys: np.ndarray, runs: _Runs
) -> List[CellSet]:
    """One lazily built :class:`CellSet` per component ``0..count-1``.

    ``xs``/``ys`` must be the row-major member scan that ``runs`` was cut
    from (components may be empty).  A stable sort groups the members by
    component, keeping row-major order inside each group; it is skipped
    when the runs are already grouped, as they are for a single
    component.  Every set then holds its slice of the shared grouped
    arrays and its bounding box, so no component touches a grid until it
    is read.
    """
    comp = runs.comp
    if (comp[1:] < comp[:-1]).any():
        order = np.argsort(runs.member_comps(), kind="stable")
        xs, ys = xs[order], ys[order]
    ends = np.cumsum(runs.sizes()).tolist()
    x0, y0, x1, y1 = runs.boxes().tolist()
    lazy = CellSet._lazy
    return [
        lazy(shape, (a, b, c, d), hi - lo, (xs, ys, lo, hi))
        for a, b, c, d, lo, hi in zip(x0, y0, x1, y1, [0] + ends[:-1], ends)
    ]


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
    xs, ys = cells._coords()
    return _label_runs(xs, ys, cells.shape, connectivity).count == 1


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
