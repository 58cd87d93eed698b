"""Fault-ring (f-ring) routing around rectangular faulty blocks.

The classic rectangular-block detour of Boppana and Chalasani: because
phase 1's blocks are *known rectangles*, a blocked packet does not need
blind wall-following — it plans its detour from the block geometry.
When a dimension-order hop would enter a block, the packet

1. picks the block face to travel along — the side whose exit
   row/column is closer to the destination, falling back to the other
   side when the first is walled off by the mesh edge,
2. **slides** along the blocked hop's cross dimension to that face,
3. **runs** along the face until it has passed the block (or reached
   the destination's coordinate), then resumes dimension-order routing.

This is the routing style whose simplicity the paper credits to block
convexity ("the convexity of a rectangle facilitates simple and
efficient ways to route messages around fault regions").  Because the
blocks are disjoint with separation >= 2, every rim cell between or
beside blocks is enabled, so the planned detour only fails at the mesh
boundary — in which case the router honestly reports the drop.

The router requires rectangular obstacles, i.e. a
:meth:`~repro.routing.base.FaultModelView.from_blocks` view; for the
refined polygonal model use :class:`~repro.routing.wall.WallRouter`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from repro.errors import RoutingError
from repro.geometry.rectangles import Rect, bounding_rect, is_rectangle
from repro.routing.base import FaultModelView, Router
from repro.routing.packet import DropReason, RouteResult, finish
from repro.types import Coord

__all__ = ["FRingRouter"]


@dataclass
class _Detour:
    """Active detour state around one rectangle.

    ``axis`` is the blocked travel dimension (0 = x, 1 = y); the packet
    slides along the *other* dimension to ``face`` (the coordinate of
    the clear row/column), then runs along ``axis`` until past
    ``run_target``.
    """

    rect: Rect
    axis: int
    face: int
    run_target: int


class FRingRouter(Router):
    """Deterministic rectangle-rim detour routing.

    Raises
    ------
    RoutingError
        If any obstacle of the view is not a full rectangle.
    """

    name = "f-ring"

    def __init__(self, view: FaultModelView):
        super().__init__(view)
        self._rects: List[Rect] = []
        for obs in view.obstacles:
            if not is_rectangle(obs):
                raise RoutingError(
                    "FRingRouter needs rectangular obstacles; use the "
                    "faulty-block view (or WallRouter for polygons)"
                )
            self._rects.append(bounding_rect(obs))

    def _route(self, source: Coord, dest: Coord) -> RouteResult:
        path = [source]
        at = source
        detour: Optional[_Detour] = None
        seen: Set[Tuple[Coord, Optional[Tuple[int, int, int]]]] = set()

        while at != dest:
            if len(path) > self.max_hops:
                return finish(source, dest, path, DropReason.BUDGET)
            key = (
                at,
                None
                if detour is None
                else (detour.axis, detour.face, detour.run_target),
            )
            if key in seen:
                return finish(source, dest, path, DropReason.BLOCKED)
            seen.add(key)

            if detour is None:
                nxt, detour = self._greedy_or_start_detour(at, dest)
            else:
                nxt, detour = self._detour_step(at, dest, detour)
            if nxt is None:
                return finish(source, dest, path, DropReason.BLOCKED)
            path.append(nxt)
            at = nxt
        return finish(source, dest, path, DropReason.NONE)

    # -- greedy phase ------------------------------------------------------------

    def _greedy_or_start_detour(
        self, at: Coord, dest: Coord
    ) -> Tuple[Optional[Coord], Optional[_Detour]]:
        blocked_rect: Optional[Tuple[Coord, Rect]] = None
        for hop in self._xy_preferred(at, dest):
            if self.view.is_enabled(hop):
                return hop, None
            rect = self._rect_containing(hop)
            if rect is not None and blocked_rect is None:
                blocked_rect = (hop, rect)
        if blocked_rect is None:
            return None, None  # walled in by the mesh edge or disabled cells
        hop, rect = blocked_rect
        detour = self._plan(at, dest, hop, rect)
        if detour is None:
            return None, None
        return self._detour_step(at, dest, detour)

    def _rect_containing(self, c: Coord) -> Optional[Rect]:
        for r in self._rects:
            if r.contains(c):
                return r
        return None

    # -- detour planning -----------------------------------------------------------

    def _plan(
        self, at: Coord, dest: Coord, blocked: Coord, rect: Rect
    ) -> Optional[_Detour]:
        w, h = self.view.topology.shape
        axis = 0 if blocked[1] == at[1] else 1  # dimension we failed to move in
        if axis == 0:
            faces = [rect.y0 - 1, rect.y1 + 1]
            limit = h
            run_exit = rect.x1 + 1 if dest[0] > at[0] else rect.x0 - 1
            run_target = (
                dest[0]
                if rect.x0 <= dest[0] <= rect.x1
                else run_exit
            )
            if not (0 <= run_target < w):
                return None  # the block reaches the mesh edge we must pass
            dest_cross = dest[1]
        else:
            faces = [rect.x0 - 1, rect.x1 + 1]
            limit = w
            run_exit = rect.y1 + 1 if dest[1] > at[1] else rect.y0 - 1
            run_target = (
                dest[1]
                if rect.y0 <= dest[1] <= rect.y1
                else run_exit
            )
            if not (0 <= run_target < h):
                return None
            dest_cross = dest[0]
        # Prefer the face nearer the destination's cross coordinate.
        faces = [f for f in faces if 0 <= f < limit]
        if not faces:
            return None
        face = min(faces, key=lambda f: abs(dest_cross - f))
        return _Detour(rect=rect, axis=axis, face=face, run_target=run_target)

    def _detour_step(
        self, at: Coord, dest: Coord, detour: _Detour
    ) -> Tuple[Optional[Coord], Optional[_Detour]]:
        """One step of an active detour; may hand off to a nested detour
        when the run collides with a different block."""
        cross = 1 - detour.axis
        if at[cross] != detour.face:
            # Slide phase: move along the cross dimension toward the face.
            direction = 1 if detour.face > at[cross] else -1
            step = list(at)
            step[cross] += direction
            nxt = (step[0], step[1])
            if not self.view.is_enabled(nxt):
                return None, None  # rim interrupted (mesh edge collision)
            return nxt, detour
        # Run phase: move along the blocked dimension toward run_target.
        if at[detour.axis] == detour.run_target:
            return self._greedy_or_start_detour(at, dest)  # detour complete
        direction = 1 if detour.run_target > at[detour.axis] else -1
        step = list(at)
        step[detour.axis] += direction
        nxt = (step[0], step[1])
        if self.view.is_enabled(nxt):
            return nxt, detour
        other = self._rect_containing(nxt)
        if other is not None and not other.intersects(detour.rect):
            # Chained f-ring: a second block interrupts the run.
            nested = self._plan(at, dest, nxt, other)
            if nested is not None:
                return self._detour_step(at, dest, nested)
        return None, None
