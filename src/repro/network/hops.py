"""Per-hop routing functions for the wormhole simulator.

Wormhole routers decide one hop at a time when the head flit arrives,
so the simulator consumes *hop functions* ``(at, dest) -> next node``
rather than whole precomputed paths.  Provided here:

* :func:`xy_hops` — dimension-order; deadlock-free on one virtual
  channel (the classic e-cube result, demonstrated live by the bench);
* :func:`block_detour_hops` — XY with a deterministic slide around
  rectangular faulty blocks, the wormhole analogue of the f-ring;
* :func:`clockwise_ring_hops` — an intentionally cyclic routing
  function used by the tests to manufacture a true wormhole deadlock
  that the simulator's watchdog must detect.

Hop functions must be memoryless and deterministic — exactly the class
of routing algorithms whose deadlock-freedom the channel-dependency
machinery of :mod:`repro.routing.cdg` can certify.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.geometry.rectangles import Rect
from repro.routing.base import FaultModelView
from repro.types import Coord

__all__ = ["HopFunction", "xy_hops", "block_detour_hops", "clockwise_ring_hops"]

#: ``fn(at, dest) -> next node`` or None when no legal hop exists.
HopFunction = Callable[[Coord, Coord], Optional[Coord]]


def xy_hops() -> HopFunction:
    """Dimension-order routing: correct X, then Y."""

    def fn(at: Coord, dest: Coord) -> Optional[Coord]:
        if at[0] != dest[0]:
            return (at[0] + (1 if dest[0] > at[0] else -1), at[1])
        if at[1] != dest[1]:
            return (at[0], at[1] + (1 if dest[1] > at[1] else -1))
        return None

    return fn


def block_detour_hops(view: FaultModelView) -> HopFunction:
    """XY routing that slides around rectangular fault blocks.

    Memoryless rectangle avoidance: when the dimension-order hop would
    enter a block, move along the cross dimension toward the block face
    nearer the destination.  Because the choice depends only on
    ``(at, dest)`` and fixed geometry, the function is a valid wormhole
    routing relation.  It can fail (return None) when a block pins the
    packet to the mesh edge; the simulator then drops the worm.
    """
    from repro.geometry.rectangles import bounding_rect, is_rectangle

    rects = []
    for obs in view.obstacles:
        if is_rectangle(obs):
            rects.append(bounding_rect(obs))
    base = xy_hops()
    w, h = view.topology.shape

    def rect_containing(c: Coord) -> Optional[Rect]:
        for r in rects:
            if r.contains(c):
                return r
        return None

    def fn(at: Coord, dest: Coord) -> Optional[Coord]:
        hop = base(at, dest)
        if hop is None:
            return None
        if view.is_enabled(hop):
            return hop
        rect = rect_containing(hop)
        if rect is None:
            return None
        if hop[1] == at[1]:  # blocked along x: slide in y
            faces = [f for f in (rect.y0 - 1, rect.y1 + 1) if 0 <= f < h]
            faces.sort(key=lambda f: abs(dest[1] - f))
            for face in faces:
                step = (at[0], at[1] + (1 if face > at[1] else -1))
                if view.is_enabled(step):
                    return step
            return None
        faces = [f for f in (rect.x0 - 1, rect.x1 + 1) if 0 <= f < w]
        faces.sort(key=lambda f: abs(dest[0] - f))
        for face in faces:
            step = (at[0] + (1 if face > at[0] else -1), at[1])
            if view.is_enabled(step):
                return step
        return None

    return fn


def clockwise_ring_hops(ring: Sequence[Coord]) -> HopFunction:
    """Route every packet around a fixed cycle of nodes (test rig).

    All sources and destinations must lie on ``ring``; each hop advances
    one position clockwise.  Four worms injected a quarter turn apart
    with destinations a half turn away will each hold one ring channel
    while waiting for the next — the canonical wormhole deadlock.
    """
    index = {c: i for i, c in enumerate(ring)}
    n = len(ring)

    def fn(at: Coord, dest: Coord) -> Optional[Coord]:
        if at == dest:
            return None
        if at not in index or dest not in index:
            raise ValueError(f"{at} or {dest} not on the configured ring")
        return ring[(index[at] + 1) % n]

    return fn
