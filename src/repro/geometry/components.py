"""Connected components of cell sets.

Two connectivities matter in the paper:

* **4-connectivity** (mesh links) — used for *faulty blocks*, which are
  maximal sets of link-connected unsafe nodes, and

* **8-connectivity** (king moves) — used for *disabled regions*: the
  paper treats two disabled nodes whose closed unit squares share even a
  single corner point as part of one region (its Section 3 example puts
  faults ``(2,1)`` and ``(3,2)`` into one disabled region).

Components are labeled by a NumPy two-pass union-find: cells are first
grouped into vertical runs with one cumulative-sum pass, run
adjacencies are extracted with whole-array shifts, and the run graph is
collapsed by vectorized pointer jumping.  No per-cell Python work; this
is what makes block/region extraction cheap enough for the per-trial
hot path of large sweeps.

:func:`connected_components_reference` keeps the original per-cell
breadth-first flood fill as the oracle the property tests pin the
union-find pass against bit-for-bit.  Both return components ordered by
their smallest row-major member, so results are deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import List, Tuple

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


def _label_coords(
    xs: np.ndarray, ys: np.ndarray, shape: Tuple[int, int], connectivity: int
) -> Tuple[np.ndarray, int]:
    """Union-find labeling in coordinate space.

    ``xs``/``ys`` must be the row-major member scan of a mask (exactly
    what ``np.nonzero`` returns).  Working on coordinates instead of the
    grid keeps every pass proportional to the member count, not the grid
    area — neighbour lookups are binary searches into the sorted linear
    index, so no run grid is ever materialised.

    Returns ``(comp_of, count)`` where ``comp_of[i]`` is the component
    index of member ``i``; components are numbered ``0..count-1`` by
    their smallest row-major member.
    """
    n = xs.size
    if n == 0:
        return np.empty(0, dtype=np.int32), 0

    # Pass 1: vertical runs.  Members are sorted by x then y; a new run
    # starts at each column change or y gap.
    new_run = np.empty(n, dtype=bool)
    new_run[0] = True
    np.logical_or(xs[1:] != xs[:-1], ys[1:] != ys[:-1] + 1, out=new_run[1:])
    run_id = np.cumsum(new_run, dtype=np.int32) - 1
    nruns = int(run_id[-1]) + 1

    # Pass 2: union runs joined by a west-side adjacency.  Same-column
    # adjacencies are inside runs already; (dx=-1) offsets cover every
    # remaining pair once.  A west neighbour's linear index is strictly
    # smaller than the member's own, so searchsorted never returns n.
    h = shape[1]
    lin = xs.astype(np.int64) * h + ys
    offsets = ((-1, 0),) if connectivity == 4 else ((-1, 0), (-1, -1), (-1, 1))
    edges_a: List[np.ndarray] = []
    edges_b: List[np.ndarray] = []
    for _dx, dy in offsets:
        ok = xs > 0
        if dy == -1:
            ok = ok & (ys > 0)
        elif dy == 1:
            ok = ok & (ys < h - 1)
        target = lin[ok] - h + dy
        pos = np.searchsorted(lin, target)
        present = lin[pos] == target
        if present.any():
            edges_a.append(run_id[ok][present])
            edges_b.append(run_id[pos[present]])

    parent = np.arange(nruns, dtype=np.int32)
    if edges_a:
        a = np.concatenate(edges_a)
        b = np.concatenate(edges_b)
        while True:
            old = parent.copy()
            # Each edge pulls both endpoints to the smaller current root.
            m = np.minimum(parent[a], parent[b])
            np.minimum.at(parent, a, m)
            np.minimum.at(parent, b, m)
            # Pointer jumping: halve tree heights until flat.
            compressed = parent[parent]
            while not np.array_equal(compressed, parent):
                parent = compressed
                compressed = parent[parent]
            if np.array_equal(old, parent):
                break

    # A component's root is its minimal run id, and run ids increase in
    # scan order — so sorting the distinct roots ascending numbers the
    # components by first (smallest row-major) member.
    roots = parent[run_id]
    distinct, comp_of = np.unique(roots, return_inverse=True)
    return comp_of.astype(np.int32, copy=False), int(distinct.size)


def label_components(mask: BoolGrid, connectivity: int = 4) -> Tuple[np.ndarray, int]:
    """Label the connected components of a boolean grid, vectorized.

    Two-pass union-find over *runs*: member cells are grouped into
    maximal vertical runs (consecutive ``y`` at constant ``x``) with a
    single cumulative-sum pass over the row-major member scan; run
    adjacencies across neighbouring columns are binary searches into the
    sorted member index; and the run adjacency graph is collapsed to
    per-run minima by vectorized pointer jumping
    (``parent = parent[parent]``), which converges geometrically.

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
    comp_of, count = _label_coords(xs, ys, cells.shape, connectivity)
    return _lazy_components(cells.shape, xs, ys, comp_of, count)


def _component_boxes(
    comp_of: np.ndarray, xs: np.ndarray, ys: np.ndarray, count: int
) -> np.ndarray:
    """Inclusive bounding boxes of every component as a ``(4, count)``
    array of rows ``x0, y0, x1, y1``, from one scatter reduction per
    coordinate.  Components without members get meaningless boxes."""
    boxes = np.full((4, count), -1, dtype=np.int64)
    boxes[:2] = 1 << 62
    for axis, coord in enumerate((xs, ys)):
        np.minimum.at(boxes[axis], comp_of, coord)
        np.maximum.at(boxes[axis + 2], comp_of, coord)
    return boxes


def _lazy_components(
    shape: Tuple[int, int],
    xs: np.ndarray,
    ys: np.ndarray,
    comp_of: np.ndarray,
    count: int,
) -> List[CellSet]:
    """One lazily built :class:`CellSet` per component ``0..count-1``.

    ``xs``/``ys`` must be in row-major order and ``comp_of[i]`` the
    component of member ``i`` (components may be empty).  A stable sort
    groups the members by component, keeping row-major order inside each
    group; every set then holds its slice of the shared sorted arrays and
    its bounding box, so no component touches a grid until it is read.
    """
    sizes = np.bincount(comp_of, minlength=count)
    order = np.argsort(comp_of, kind="stable")
    xs_g, ys_g = xs[order], ys[order]
    ends = np.cumsum(sizes).tolist()
    x0, y0, x1, y1 = _component_boxes(comp_of, xs, ys, count).tolist()
    lazy = CellSet._lazy
    return [
        lazy(shape, (a, b, c, d), hi - lo, (xs_g, ys_g, lo, hi))
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
    return _label_coords(xs, ys, cells.shape, connectivity)[1] == 1


def dilate(mask: BoolGrid, connectivity: int = 4) -> BoolGrid:
    """One-step morphological dilation of a mask within its grid.

    Used for separation-distance checks: two sets are at Manhattan
    distance >= 2 iff the 4-dilation of one misses the other.
    """
    out = mask.copy()
    offsets = Connectivity4 if connectivity == 4 else Connectivity8
    for dx, dy in offsets:
        shifted = np.zeros_like(mask)
        src_x = slice(max(0, -dx), mask.shape[0] - max(0, dx))
        dst_x = slice(max(0, dx), mask.shape[0] + min(0, dx))
        src_y = slice(max(0, -dy), mask.shape[1] - max(0, dy))
        dst_y = slice(max(0, dy), mask.shape[1] + min(0, dy))
        shifted[dst_x, dst_y] = mask[src_x, src_y]
        out |= shifted
    return out


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
