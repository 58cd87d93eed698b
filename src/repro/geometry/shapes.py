"""Canonical fault-region shapes.

The fault-tolerant-routing literature the paper builds on classifies
irregular fault regions by letter shapes: **L**, **T** and **+** regions
are orthogonal convex; **U** and **H** regions are not (Section 2).
These generators build the shapes as :class:`~repro.geometry.cells.CellSet`
values anchored at a grid position — used by the shaped fault model, the
shape-specific tests, and the examples.

All generators take the shape's bounding-box size, anchor the bounding
box's south-west cell at ``anchor``, and validate fit against the target
grid shape.  Every arm is one cell thick.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import GeometryError
from repro.geometry.cells import CellSet
from repro.types import Coord

__all__ = [
    "rectangle",
    "l_shape",
    "t_shape",
    "plus_shape",
    "u_shape",
    "h_shape",
    "staircase_shape",
]


def _blank(shape: Tuple[int, int], anchor: Coord, w: int, h: int) -> np.ndarray:
    gw, gh = shape
    ax, ay = anchor
    if w < 1 or h < 1:
        raise GeometryError(f"shape extent must be positive, got {w}x{h}")
    if ax < 0 or ay < 0 or ax + w > gw or ay + h > gh:
        raise GeometryError(
            f"shape {w}x{h} at {anchor} does not fit in grid {shape}"
        )
    return np.zeros(shape, dtype=bool)


def rectangle(shape: Tuple[int, int], anchor: Coord, w: int, h: int) -> CellSet:
    """A full ``w x h`` rectangle with south-west cell at ``anchor``."""
    mask = _blank(shape, anchor, w, h)
    ax, ay = anchor
    mask[ax : ax + w, ay : ay + h] = True
    return CellSet(mask)


def l_shape(shape: Tuple[int, int], anchor: Coord, w: int, h: int) -> CellSet:
    """An L: a full bottom row-arm plus a left column-arm (orthoconvex)."""
    mask = _blank(shape, anchor, w, h)
    ax, ay = anchor
    mask[ax : ax + w, ay] = True          # bottom arm
    mask[ax, ay : ay + h] = True          # left arm
    return CellSet(mask)


def t_shape(shape: Tuple[int, int], anchor: Coord, w: int, h: int) -> CellSet:
    """A T: a full top row-arm plus a centered vertical stem (orthoconvex)."""
    mask = _blank(shape, anchor, w, h)
    ax, ay = anchor
    mask[ax : ax + w, ay + h - 1] = True  # top bar
    mask[ax + (w - 1) // 2, ay : ay + h] = True  # stem
    return CellSet(mask)


def plus_shape(shape: Tuple[int, int], anchor: Coord, w: int, h: int) -> CellSet:
    """A +: centered horizontal and vertical bars (orthoconvex)."""
    mask = _blank(shape, anchor, w, h)
    ax, ay = anchor
    mask[ax : ax + w, ay + (h - 1) // 2] = True  # horizontal bar
    mask[ax + (w - 1) // 2, ay : ay + h] = True  # vertical bar
    return CellSet(mask)


def u_shape(shape: Tuple[int, int], anchor: Coord, w: int, h: int) -> CellSet:
    """A U: two vertical arms joined by a bottom bar (NOT orthoconvex for
    ``w >= 3`` and ``h >= 2``)."""
    if w < 3:
        raise GeometryError("U too narrow to have a cavity")
    mask = _blank(shape, anchor, w, h)
    ax, ay = anchor
    mask[ax : ax + w, ay] = True          # bottom bar
    mask[ax, ay : ay + h] = True          # left arm
    mask[ax + w - 1, ay : ay + h] = True  # right arm
    return CellSet(mask)


def h_shape(shape: Tuple[int, int], anchor: Coord, w: int, h: int) -> CellSet:
    """An H: two vertical arms joined by a centered crossbar (NOT orthoconvex
    for a bounding box tall and wide enough to leave cavities)."""
    if w < 3 or h < 3:
        raise GeometryError("H too small to have cavities")
    mask = _blank(shape, anchor, w, h)
    ax, ay = anchor
    mask[ax, ay : ay + h] = True          # left arm
    mask[ax + w - 1, ay : ay + h] = True  # right arm
    mask[ax : ax + w, ay + (h - 1) // 2] = True  # crossbar
    return CellSet(mask)


def staircase_shape(shape: Tuple[int, int], anchor: Coord, steps: int) -> CellSet:
    """A diagonal staircase of ``steps`` corner-touching cells (orthoconvex).

    The minimal example of a pinched polygon: each cell touches the next
    only at a corner, yet the region is a single orthogonal convex
    polygon under the paper's closed-square semantics.
    """
    if steps < 1:
        raise GeometryError("staircase needs at least one step")
    mask = _blank(shape, anchor, steps, steps)
    ax, ay = anchor
    for i in range(steps):
        mask[ax + i, ay + i] = True
    return CellSet(mask)
