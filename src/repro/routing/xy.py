"""Dimension-order (XY) routing — the fault-intolerant baseline.

The packet first corrects its X offset, then its Y offset.  In a
fault-free mesh this is minimal and deadlock-free (the classic e-cube
result, re-verified by the CDG tests); with faults it drops the packet
at the first disabled node on its fixed path, which is exactly why the
fault-tolerant literature the paper belongs to exists.

The hop rule is :meth:`~repro.routing.vectorized.XYKernel.decide_one`,
the same one the batched traffic engine routes with; the router walks
it one hop at a time.
"""

from __future__ import annotations

from repro.routing.base import FaultModelView, Router
from repro.routing.packet import RouteResult
from repro.routing.vectorized import XYKernel
from repro.types import Coord

__all__ = ["XYRouter"]


class XYRouter(Router):
    """Deterministic X-then-Y dimension-order routing."""

    name = "xy"

    def __init__(self, view: FaultModelView):
        super().__init__(view)
        self._decide = XYKernel(view).decide_one

    def _route(self, source: Coord, dest: Coord) -> RouteResult:
        return self._walk(
            source, dest, lambda at, to, st: self._decide(*at, *to, st), None
        )
