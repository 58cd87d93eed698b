"""Axis-aligned rectangles of grid cells.

Faulty blocks under Definitions 2a and 2b are (provably) rectangles;
this module provides the :class:`Rect` value type, rectangle tests for
cell sets, and conversions used by the block extractor and the
block-based router.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.errors import GeometryError
from repro.geometry.cells import CellSet
from repro.types import Coord

__all__ = ["Rect", "is_rectangle", "bounding_rect", "rect_id_grid"]


@dataclass(frozen=True, order=True)
class Rect:
    """An inclusive axis-aligned cell rectangle ``[x0..x1] x [y0..y1]``."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self) -> None:
        if self.x1 < self.x0 or self.y1 < self.y0:
            raise GeometryError(f"degenerate rectangle {self}")

    @property
    def width(self) -> int:
        """Number of cell columns."""
        return self.x1 - self.x0 + 1

    @property
    def height(self) -> int:
        """Number of cell rows."""
        return self.y1 - self.y0 + 1

    @property
    def area(self) -> int:
        """Number of cells."""
        return self.width * self.height

    @property
    def diameter(self) -> int:
        """Manhattan diameter ``(width-1) + (height-1)`` — the paper's d(B)."""
        return (self.width - 1) + (self.height - 1)

    def contains(self, c: Coord) -> bool:
        """Whether cell ``c`` lies inside the rectangle."""
        return self.x0 <= c[0] <= self.x1 and self.y0 <= c[1] <= self.y1

    def cells(self) -> Iterator[Coord]:
        """Iterate all member cells in row-major order."""
        for x in range(self.x0, self.x1 + 1):
            for y in range(self.y0, self.y1 + 1):
                yield (x, y)

    def corners(self) -> Tuple[Coord, Coord, Coord, Coord]:
        """The four corner cells (SW, SE, NW, NE)."""
        return (
            (self.x0, self.y0),
            (self.x1, self.y0),
            (self.x0, self.y1),
            (self.x1, self.y1),
        )

    def intersects(self, other: "Rect") -> bool:
        """Whether the two rectangles share at least one cell."""
        return not (
            other.x1 < self.x0
            or self.x1 < other.x0
            or other.y1 < self.y0
            or self.y1 < other.y0
        )

    def distance(self, other: "Rect") -> int:
        """Minimum Manhattan distance between cells of the two rectangles."""
        dx = max(0, max(self.x0, other.x0) - min(self.x1, other.x1))
        dy = max(0, max(self.y0, other.y0) - min(self.y1, other.y1))
        return dx + dy

    def expanded(self, margin: int) -> "Rect":
        """The rectangle grown by ``margin`` cells on every side (may go
        negative; clamp against a grid with :meth:`clamped`)."""
        return Rect(self.x0 - margin, self.y0 - margin, self.x1 + margin, self.y1 + margin)

    def clamped(self, shape: Tuple[int, int]) -> "Rect":
        """The rectangle clipped to a grid of the given shape.

        Raises
        ------
        GeometryError
            If the intersection with the grid is empty.
        """
        w, h = shape
        x0, y0 = max(self.x0, 0), max(self.y0, 0)
        x1, y1 = min(self.x1, w - 1), min(self.y1, h - 1)
        if x1 < x0 or y1 < y0:
            raise GeometryError(f"{self} does not intersect grid {shape}")
        return Rect(x0, y0, x1, y1)

    def to_cells(self, shape: Tuple[int, int]) -> CellSet:
        """Materialise the rectangle as a :class:`CellSet` on a grid.

        Raises
        ------
        GeometryError
            If the rectangle does not fit in the grid.
        """
        w, h = shape
        if self.x0 < 0 or self.y0 < 0 or self.x1 >= w or self.y1 >= h:
            raise GeometryError(f"{self} does not fit in grid {shape}")
        mask = np.zeros(shape, dtype=bool)
        mask[self.x0 : self.x1 + 1, self.y0 : self.y1 + 1] = True
        return CellSet(mask)


def bounding_rect(cells: CellSet) -> Rect:
    """Smallest rectangle containing a non-empty cell set."""
    x0, y0, x1, y1 = cells.bounding_box()
    return Rect(x0, y0, x1, y1)


def is_rectangle(cells: CellSet) -> bool:
    """Whether a cell set is exactly a (non-empty) full rectangle.

    Equivalent to: the set fills its own bounding box.  This is the
    property Definitions 2a/2b guarantee for faulty blocks; the block
    extractor asserts it for every component it produces.
    """
    if not cells:
        return False
    return len(cells) == bounding_rect(cells).area


def rect_id_grid(shape: Tuple[int, int], boxes: Sequence[Tuple[int, int, int, int]]) -> np.ndarray:
    """First-match rectangle id per cell: the index of the first
    inclusive box ``(x0, y0, x1, y1)`` containing the cell, ``-1`` in
    none.  Boxes are painted in reverse so earlier ones win overlaps."""
    grid = np.full(shape, -1, dtype=np.int32)
    for i in range(len(boxes) - 1, -1, -1):
        x0, y0, x1, y1 = boxes[i]
        grid[x0 : x1 + 1, y0 : y1 + 1] = i
    return grid
