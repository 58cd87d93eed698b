"""Connecting orthoconvex fragments into a single polygon.

The orthogonal convex closure of a *disconnected* fault set can itself
be disconnected (two faults two diagonal king-moves apart close to
themselves).  When a single polygon is required — e.g. to compute "the
smallest orthogonal convex polygon that includes all the faulty nodes"
of the paper's Corollary — the fragments must be joined.

A monotone *staircase* of corner-touching cells is the cheapest
orthoconvex-compatible connector: a diagonal chain of cells is already
closed under span filling (each row and column holds a single cell), and
it 8-connects its endpoints with ``max(|dx|, |dy|) - 1`` added cells.

:func:`connect_orthoconvex` greedily joins the nearest fragment pair
with such a staircase, re-closes, and repeats.  The result is always a
valid orthogonal convex polygon containing the input; its size is an
upper bound on the (possibly non-unique) minimum.  For inputs whose
closure is already connected — which Theorem 2 shows is the case for
every disabled region's fault set — the function is exact and adds
nothing.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import GeometryError
from repro.geometry.cells import CellSet
from repro.geometry.components import connected_components
from repro.geometry.orthoconvex import orthoconvex_closure
from repro.types import Coord

__all__ = ["connect_orthoconvex"]

#: Loop budget of :func:`connect_orthoconvex`; each round removes at
#: least one fragment, so well-formed inputs never come near it.
_MAX_JOIN_ROUNDS = 10_000


def staircase_cells(u: Coord, v: Coord) -> List[Coord]:
    """Intermediate cells of a monotone staircase from ``u`` to ``v``.

    The chain steps diagonally while both coordinate gaps remain, then
    straight; endpoints are excluded.  Consecutive chain cells (and the
    endpoints) are 8-adjacent, and the chain together with its endpoints
    is orthoconvex as a set.
    """
    x, y = u
    tx, ty = v
    cells: List[Coord] = []
    while (x, y) != (tx, ty):
        if x != tx:
            x += 1 if tx > x else -1
        if y != ty:
            y += 1 if ty > y else -1
        if (x, y) != (tx, ty):
            cells.append((x, y))
    return cells


def _closest_pair(a: CellSet, b: CellSet) -> Tuple[Coord, Coord, int]:
    """Cell pair across two sets minimising the staircase connection cost.

    The cost of joining cells ``u`` and ``v`` with a staircase is
    ``max(|dx|, |dy|) - 1`` added cells, i.e. Chebyshev distance minus 1.
    """
    ax, ay = np.nonzero(a.mask)
    bx, by = np.nonzero(b.mask)
    cheb = np.maximum(
        np.abs(ax[:, None] - bx[None, :]), np.abs(ay[:, None] - by[None, :])
    )
    i, j = np.unravel_index(int(np.argmin(cheb)), cheb.shape)
    u = (int(ax[i]), int(ay[i]))
    v = (int(bx[j]), int(by[j]))
    return u, v, int(cheb[i, j]) - 1


def connect_orthoconvex(cells: CellSet) -> CellSet:
    """Smallest-effort orthogonal convex *polygon* containing ``cells``.

    Alternates orthoconvex closure with greedy nearest-fragment staircase
    joins until the region is a single 8-connected component.  See the
    module docstring for the optimality caveat.

    Raises
    ------
    GeometryError
        If ``cells`` is empty, or the join loop exceeds
        ``_MAX_JOIN_ROUNDS`` (impossible for well-formed inputs).
    """
    if not cells:
        raise GeometryError("cannot build a polygon from an empty cell set")
    current = orthoconvex_closure(cells)
    for _ in range(_MAX_JOIN_ROUNDS):
        comps = connected_components(current, connectivity=8)
        if len(comps) == 1:
            return current
        # Greedy: join the globally cheapest fragment pair.
        best: Tuple[Coord, Coord] | None = None
        best_cost = None
        for i in range(len(comps)):
            for j in range(i + 1, len(comps)):
                u, v, cost = _closest_pair(comps[i], comps[j])
                if best_cost is None or cost < best_cost:
                    best, best_cost = (u, v), cost
        assert best is not None
        bridge = CellSet.from_coords(cells.shape, staircase_cells(*best))
        current = orthoconvex_closure(current.union(bridge))
    raise GeometryError(
        f"connect_orthoconvex did not converge in {_MAX_JOIN_ROUNDS} rounds"
    )
