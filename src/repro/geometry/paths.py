"""Monotone (staircase) paths inside regions.

A key consequence of orthogonal convexity that the routing story leans
on: **any two cells of a connected orthogonal convex region are joined
by a monotone staircase path that stays inside the region** (each hop
moves toward the target in one dimension and never away in the other).
This is the geometric substance of the paper's remark that convexity
enables *progressive* routing — a packet skirting an orthoconvex fault
polygon never has to backtrack along a dimension.

:func:`monotone_path_within` finds such a path by BFS restricted to
monotone 8-moves; the property suite asserts existence for every cell
pair of every pipeline-produced disabled region, and the perimeter
identity ``perimeter == 2 * (bbox_width + bbox_height)`` that makes rim
detour lengths predictable.

This module is a test oracle for Theorem 1: nothing in the library
calls it, so :mod:`repro.geometry` does not export it and the tests
import it from here by name.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from repro.geometry.cells import CellSet
from repro.types import Coord

__all__ = ["monotone_path_within", "is_monotone_path"]


def _signs(u: Coord, v: Coord) -> tuple:
    sx = 0 if u[0] == v[0] else (1 if v[0] > u[0] else -1)
    sy = 0 if u[1] == v[1] else (1 if v[1] > u[1] else -1)
    return sx, sy


def is_monotone_path(path: List[Coord]) -> bool:
    """Whether consecutive king-moves never step away from the endpoint.

    A path is monotone when every hop's x-component is 0 or the sign of
    the remaining x offset, and likewise for y (so both coordinates
    progress toward the target without reversals).
    """
    if len(path) < 2:
        return True
    target = path[-1]
    for a, b in zip(path, path[1:]):
        dx, dy = b[0] - a[0], b[1] - a[1]
        if max(abs(dx), abs(dy)) != 1:
            return False
        sx, sy = _signs(a, target)
        if dx not in (0, sx) or dy not in (0, sy):
            return False
    return True


def monotone_path_within(
    region: CellSet, start: Coord, goal: Coord
) -> Optional[List[Coord]]:
    """A monotone king-move path from ``start`` to ``goal`` inside ``region``.

    Moves are the (at most three) king steps whose components point
    weakly toward the goal; only region cells may be visited.  Returns
    the path (including endpoints) or None when no monotone path exists
    — which, for connected orthoconvex regions, never happens (a fact
    the property tests exercise).
    """
    if start not in region or goal not in region:
        return None
    if start == goal:
        return [start]
    parent: Dict[Coord, Coord] = {start: start}
    queue = deque([start])
    while queue:
        at = queue.popleft()
        if at == goal:
            break
        sx, sy = _signs(at, goal)
        steps = []
        if sx and sy:
            steps = [(sx, sy), (sx, 0), (0, sy)]
        elif sx:
            steps = [(sx, 0)]
        else:
            steps = [(0, sy)]
        for dx, dy in steps:
            nxt = (at[0] + dx, at[1] + dy)
            if nxt not in parent and nxt in region:
                parent[nxt] = at
                queue.append(nxt)
    if goal not in parent:
        return None
    path = [goal]
    while path[-1] != start:
        path.append(parent[path[-1]])
    path.reverse()
    return path
