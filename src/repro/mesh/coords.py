"""Coordinates, directions and quadrants on the 2-D grid.

The paper addresses a node ``u`` as ``(u_x, u_y)``; two nodes are
neighbours when their addresses differ by exactly 1 in exactly one
dimension.  This module provides the direction algebra used by both the
distributed protocols (per-node neighbour enumeration) and the
vectorized fixpoints (mask shifting), plus the quadrant machinery of
Lemmas 2 and 3.
"""

from __future__ import annotations

import enum
from typing import Tuple

from repro.types import Coord

__all__ = [
    "Dimension",
    "Direction",
    "Quadrant",
    "DIRECTIONS",
    "add",
    "sub",
]


class Dimension(enum.IntEnum):
    """The two mesh dimensions; ``X`` is horizontal, ``Y`` vertical."""

    X = 0
    Y = 1

    @property
    def other(self) -> "Dimension":
        """The perpendicular dimension."""
        return Dimension.Y if self is Dimension.X else Dimension.X


class Direction(enum.Enum):
    """The four mesh link directions.

    The value of each member is its unit offset ``(dx, dy)``.
    ``EAST``/``WEST`` move along :attr:`Dimension.X`;
    ``NORTH``/``SOUTH`` along :attr:`Dimension.Y` (north = +y).
    """

    EAST = (1, 0)
    WEST = (-1, 0)
    NORTH = (0, 1)
    SOUTH = (0, -1)

    @property
    def offset(self) -> Coord:
        """Unit offset ``(dx, dy)`` of this direction."""
        return self.value

    @property
    def dimension(self) -> Dimension:
        """The dimension this direction moves along."""
        return Dimension.X if self.value[1] == 0 else Dimension.Y

    @property
    def opposite(self) -> "Direction":
        """The 180-degree reverse of this direction."""
        return _OPPOSITE[self]

    @property
    def clockwise(self) -> "Direction":
        """The direction 90 degrees clockwise from this one."""
        return _CLOCKWISE[self]

    @property
    def counterclockwise(self) -> "Direction":
        """The direction 90 degrees counterclockwise from this one."""
        return _CLOCKWISE[_OPPOSITE[self]]


_OPPOSITE = {
    Direction.EAST: Direction.WEST,
    Direction.WEST: Direction.EAST,
    Direction.NORTH: Direction.SOUTH,
    Direction.SOUTH: Direction.NORTH,
}

# Clockwise with north up: N -> E -> S -> W -> N.
_CLOCKWISE = {
    Direction.NORTH: Direction.EAST,
    Direction.EAST: Direction.SOUTH,
    Direction.SOUTH: Direction.WEST,
    Direction.WEST: Direction.NORTH,
}

#: The four directions in deterministic (E, W, N, S) order.
DIRECTIONS: Tuple[Direction, ...] = (
    Direction.EAST,
    Direction.WEST,
    Direction.NORTH,
    Direction.SOUTH,
)


class Quadrant(enum.Enum):
    """One of the four closed quadrants around an origin node.

    Lemma 2 of the paper divides the plane around a node ``u`` into
    quadrants ``(+,+), (+,-), (-,+), (-,-)``; each quadrant *includes*
    its bounding half-axes and the origin (the quadrants overlap on the
    axes).  The member value holds the sign pair ``(sx, sy)``.
    """

    PP = (1, 1)
    PN = (1, -1)
    NP = (-1, 1)
    NN = (-1, -1)

    def contains(self, origin: Coord, point: Coord) -> bool:
        """Whether ``point`` lies in this closed quadrant around ``origin``."""
        sx, sy = self.value
        dx, dy = point[0] - origin[0], point[1] - origin[1]
        return (dx * sx >= 0) and (dy * sy >= 0)


def add(c: Coord, d: Coord) -> Coord:
    """Component-wise coordinate addition."""
    return (c[0] + d[0], c[1] + d[1])


def sub(c: Coord, d: Coord) -> Coord:
    """Component-wise coordinate subtraction."""
    return (c[0] - d[0], c[1] - d[1])
