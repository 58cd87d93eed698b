"""Fault-region boundary routing: XY with wall-following detours.

The local, distributedly realizable fault-tolerant router: a packet
travels dimension-order until its preferred hop is disabled, then walks
along the fault region's boundary (the *f-ring* of Boppana-Chalasani,
generalised to the polygonal rims of the paper's refined model) until
it can make progress again, Bug2-style: it leaves the wall once it is
strictly closer to the destination than where it hit the region and a
dimension-order hop is free.

The convexity of the regions is what makes this practical — the paper's
Section 1 point that convex regions admit "simple and efficient ways to
route messages around fault regions".  Around *orthogonal convex*
obstacles the rim never doubles back along a line, so detours stay
short; the benchmark harness quantifies this against the BFS oracle.

The router only needs per-node local state (heading + hit-point
distance carried in the packet header) and one bit per neighbour
(enabled or not) — the information the paper's labeling provides.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from repro.mesh.coords import Direction
from repro.routing.base import Router
from repro.routing.packet import DropReason, RouteResult, finish
from repro.types import Coord

__all__ = ["WallRouter"]

_DIR_OF = {d.offset: d for d in Direction}


class WallRouter(Router):
    """XY routing with right-hand boundary traversal on blockage.

    While wall-following, the packet keeps the fault region on its
    right (counterclockwise rim traversal).
    """

    name = "wall-right"

    def _route(self, source: Coord, dest: Coord) -> RouteResult:
        path = [source]
        at = source
        following = False
        heading: Optional[Direction] = None
        hit_distance = 0
        topo = self.view.topology
        seen_wall_states: Set[Tuple[Coord, Direction]] = set()

        while at != dest:
            if len(path) > self.max_hops:
                return finish(source, dest, path, DropReason.BUDGET)

            if not following:
                moved = False
                for nxt in self._xy_preferred(at, dest):
                    if self.view.is_enabled(nxt):
                        path.append(nxt)
                        at = nxt
                        moved = True
                        break
                if moved:
                    continue
                # Both dimension-order hops blocked (or only one exists and
                # is blocked): start wall-following.
                following = True
                hit_distance = topo.distance(at, dest)
                heading = self._initial_heading(at, dest)
                seen_wall_states.clear()
                if heading is None:
                    return finish(source, dest, path, DropReason.BLOCKED)

            # Wall-following step.
            assert heading is not None
            state = (at, heading)
            if state in seen_wall_states:
                # Walked the whole rim without escaping: the destination
                # is sealed off under this view.
                return finish(source, dest, path, DropReason.BLOCKED)
            seen_wall_states.add(state)

            step = self._wall_step(at, heading)
            if step is None:
                return finish(source, dest, path, DropReason.BLOCKED)
            at, heading = step
            path.append(at)

            # Bug2 leave condition: strictly closer than the hit point and
            # a dimension-order hop is available again.
            if topo.distance(at, dest) < hit_distance:
                for nxt in self._xy_preferred(at, dest):
                    if self.view.is_enabled(nxt):
                        following = False
                        break

        return finish(source, dest, path, DropReason.NONE)

    # -- internals -----------------------------------------------------------

    def _initial_heading(self, at: Coord, dest: Coord) -> Optional[Direction]:
        """Pick the rim-walk heading when the packet first hits the region.

        The blocked preferred hop points into the region; walking
        perpendicular to it, counterclockwise, keeps the region on the
        right.  Of the two perpendiculars, prefer one that is itself
        walkable from here.
        """
        preferred = self._xy_preferred(at, dest)
        blocked_dir = _DIR_OF[(preferred[0][0] - at[0], preferred[0][1] - at[1])]
        first = blocked_dir.counterclockwise
        for cand in (first, first.opposite):
            nxt = (at[0] + cand.offset[0], at[1] + cand.offset[1])
            if self.view.is_enabled(nxt):
                return cand
        # Fully cornered except backwards; head back the way we came.
        back = blocked_dir.opposite
        nxt = (at[0] + back.offset[0], at[1] + back.offset[1])
        return back if self.view.is_enabled(nxt) else None

    def _wall_step(
        self, at: Coord, heading: Direction
    ) -> Optional[Tuple[Coord, Direction]]:
        """One right-hand-rule step: turn into the wall first, then
        straight, then away, then reverse — taking the first enabled move."""
        for d in (
            heading.clockwise,  # toward the wall on our right
            heading,
            heading.counterclockwise,
            heading.opposite,
        ):
            nxt = (at[0] + d.offset[0], at[1] + d.offset[1])
            if self.view.is_enabled(nxt):
                return nxt, d
        return None
