"""Directional safety levels — limited global information for routing.

The paper's reference [9] (Wu, *extended safety levels*, TPDS 2000)
routes minimally using a per-node summary of where the fault regions
lie, accumulated through neighbour exchanges rather than global
knowledge.  The exact construction belongs to that paper; this module
implements its information core in our framework, documented as a
substitution in DESIGN.md:

for every enabled node and each of the four directions, the **safety
level** is the number of consecutive enabled nodes in that direction
before the first disabled node or the mesh edge.  A node therefore
knows, locally, how far it can run in each direction — one integer per
direction, exactly the kind of bounded state a real router holds.  The
levels are computable distributedly in `max-run` rounds (each node
learns `1 + neighbour's level`); :func:`safety_levels` computes the
identical fixpoint with directional scans.

:class:`SafetyLevelRouter` uses the levels as a *local* minimal-routing
oracle: among the (at most two) profitable hops it prefers one whose
direction can still run at least as far as the remaining offset —
avoiding dead-ends an XY packet would hit — and falls back to the other
profitable hop otherwise.  It never misroutes, so every delivery is
minimal; the benchmarks measure how much of :class:`~repro.routing.minimal.MinimalRouter`'s
(exact, quadratic-cost) feasibility it recovers with O(1) state.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.mesh.coords import Direction
from repro.routing.base import FaultModelView, Router
from repro.routing.packet import RouteResult
from repro.types import BoolGrid, Coord, IntGrid

__all__ = ["safety_levels", "SafetyLevelRouter"]


def safety_levels(enabled: BoolGrid) -> Dict[Direction, IntGrid]:
    """Per-direction runs of enabled nodes.

    ``levels[EAST][x, y]`` is the number of consecutive enabled nodes
    strictly east of ``(x, y)`` before a disabled node or the mesh
    edge.  Levels are 0 at and beyond disabled nodes' borders; values
    at disabled nodes themselves are 0 by convention.
    """
    w, h = enabled.shape
    east = np.zeros((w, h), dtype=np.int64)
    west = np.zeros((w, h), dtype=np.int64)
    north = np.zeros((w, h), dtype=np.int64)
    south = np.zeros((w, h), dtype=np.int64)
    for x in range(w - 2, -1, -1):
        east[x, :] = np.where(enabled[x + 1, :], east[x + 1, :] + 1, 0)
    for x in range(1, w):
        west[x, :] = np.where(enabled[x - 1, :], west[x - 1, :] + 1, 0)
    for y in range(h - 2, -1, -1):
        north[:, y] = np.where(enabled[:, y + 1], north[:, y + 1] + 1, 0)
    for y in range(1, h):
        south[:, y] = np.where(enabled[:, y - 1], south[:, y - 1] + 1, 0)
    return {
        Direction.EAST: east,
        Direction.WEST: west,
        Direction.NORTH: north,
        Direction.SOUTH: south,
    }


class SafetyLevelRouter(Router):
    """Minimal adaptive routing steered by directional safety levels.

    At each node the packet considers its profitable hops (toward the
    destination in each dimension).  A hop is *assured* when the
    direction's safety level covers the whole remaining offset in that
    dimension — the packet could run straight to the destination's
    coordinate without hitting a region.  Assured hops are preferred;
    otherwise any enabled profitable hop is taken.  The packet never
    moves away from the destination, so it delivers minimally or not at
    all — trading :class:`MinimalRouter`'s exact feasibility test for
    constant-size local state.
    """

    name = "safety-level"

    def __init__(self, view: FaultModelView):
        super().__init__(view)
        self._levels = safety_levels(view.enabled)

    def _route(self, source: Coord, dest: Coord) -> RouteResult:
        return self._walk(source, dest, self._pick, None)

    def _pick(self, at: Coord, dest: Coord, state) -> Tuple[Optional[Coord], None]:
        options = []
        if at[0] != dest[0]:
            d = Direction.EAST if dest[0] > at[0] else Direction.WEST
            options.append((d, abs(dest[0] - at[0])))
        if at[1] != dest[1]:
            d = Direction.NORTH if dest[1] > at[1] else Direction.SOUTH
            options.append((d, abs(dest[1] - at[1])))
        assured = []
        viable = []
        for d, offset in options:
            hop = (at[0] + d.offset[0], at[1] + d.offset[1])
            if not self.view.is_enabled(hop):
                continue
            viable.append(hop)
            if self._levels[d][at] >= offset:
                assured.append(hop)
        hops = assured or viable
        return (hops[0] if hops else None), None
