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
   the destination's coordinate), then resumes dimension-order routing;
   a run that meets a second block plans around that one (a chained
   f-ring).

This is the routing style whose simplicity the paper credits to block
convexity ("the convexity of a rectangle facilitates simple and
efficient ways to route messages around fault regions").  Because the
blocks are disjoint with separation >= 2, every rim cell between or
beside blocks is enabled, so the planned detour only fails at the mesh
boundary — in which case the router honestly reports the drop.

The slide/run state machine is
:meth:`~repro.routing.vectorized.DetourKernel.decide_one`, the same one
the batched traffic engine routes with; the router walks it one hop at
a time, so a packet that comes back to a cell in a state it had there
drops as ``BLOCKED``.

The router requires rectangular obstacles, i.e. a
:meth:`~repro.routing.base.FaultModelView.from_blocks` view; for the
refined polygonal model use :class:`~repro.routing.wall.WallRouter`.
"""

from __future__ import annotations

from repro.errors import RoutingError
from repro.geometry.rectangles import is_rectangle
from repro.routing.base import FaultModelView, Router
from repro.routing.packet import RouteResult
from repro.routing.vectorized import DetourKernel
from repro.types import Coord

__all__ = ["FRingRouter"]


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
        if not all(is_rectangle(obs) for obs in view.obstacles):
            raise RoutingError(
                "FRingRouter needs rectangular obstacles; use the "
                "faulty-block view (or WallRouter for polygons)"
            )
        self._decide = DetourKernel(view).decide_one

    def _route(self, source: Coord, dest: Coord) -> RouteResult:
        return self._walk(
            source,
            dest,
            lambda at, to, st: self._decide(*at, *to, st),
            DetourKernel.idle,
        )
