"""2-D mesh and torus topologies.

A :class:`Topology` answers the structural questions both execution
backends need:

* per-node neighbour enumeration (used by the distributed protocols on
  the fabric engine), and
* whole-grid *shifted views* of boolean label grids (used by the
  readable one-round rules and the reference fixpoints), and their
  bit-packed sibling, the *ring* of a packed label frame (used by the
  dense fixpoints), both with topology-appropriate boundary handling —
  ghost fill values on the mesh, wrap-around on the torus.

The ghost-node convention follows Section 3 of the paper: the mesh is
conceptually surrounded by one extra ring of *ghost* nodes that are
permanently safe and enabled but never participate in any activity.
Rather than materialising the ring, :meth:`Topology.shifted` takes the
ghost label as a ``fill`` value, which keeps grids at their natural
``(width, height)`` shape and lets the fixpoints stay allocation-light.
"""

from __future__ import annotations

import abc
import functools
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.mesh.coords import DIRECTIONS, Dimension, Direction
from repro.types import BoolGrid, Coord

__all__ = ["Topology", "Mesh2D", "Torus2D"]


class Topology(abc.ABC):
    """Abstract 2-D grid topology of ``width x height`` nodes.

    Subclasses differ only in boundary behaviour; all interior structure
    is shared.  Instances are immutable and hashable.
    """

    __slots__ = ("_width", "_height")

    def __init__(self, width: int, height: int):
        if width < 1 or height < 1:
            raise TopologyError(f"dimensions must be positive, got {width}x{height}")
        self._width = int(width)
        self._height = int(height)

    # -- basic structure ---------------------------------------------------

    @property
    def width(self) -> int:
        """Number of nodes along dimension X."""
        return self._width

    @property
    def height(self) -> int:
        """Number of nodes along dimension Y."""
        return self._height

    @property
    def shape(self) -> Tuple[int, int]:
        """Grid shape ``(width, height)`` — the shape of all label grids."""
        return (self._width, self._height)

    @property
    def num_nodes(self) -> int:
        """Total number of (non-ghost) nodes."""
        return self._width * self._height

    @property
    @abc.abstractmethod
    def diameter(self) -> int:
        """Network diameter: the maximum distance between any two nodes."""

    @property
    @abc.abstractmethod
    def wraps(self) -> bool:
        """Whether links wrap around the boundary (torus) or not (mesh)."""

    def contains(self, c: Coord) -> bool:
        """Whether ``c`` is a valid node address of this topology."""
        return 0 <= c[0] < self._width and 0 <= c[1] < self._height

    def check(self, c: Coord) -> Coord:
        """Validate ``c``, returning it; raise :class:`TopologyError` if invalid."""
        if not self.contains(c):
            raise TopologyError(f"node {c} outside {self!r}")
        return c

    def nodes(self) -> Iterator[Coord]:
        """Iterate all node addresses in row-major ``(x, y)`` order."""
        for x in range(self._width):
            for y in range(self._height):
                yield (x, y)

    # -- neighbourhoods ----------------------------------------------------

    @abc.abstractmethod
    def neighbor(self, c: Coord, d: Direction) -> Coord | None:
        """The neighbour of ``c`` in direction ``d``, or ``None`` if the link
        leaves the topology (mesh boundary).  Torus links never return None."""

    def neighbors(self, c: Coord) -> List[Coord]:
        """All existing neighbours of ``c`` in deterministic (E,W,N,S) order."""
        out = []
        for d in DIRECTIONS:
            n = self.neighbor(c, d)
            if n is not None:
                out.append(n)
        return out

    def neighbors_in_dim(self, c: Coord, dim: Dimension) -> List[Coord]:
        """Existing neighbours of ``c`` along one dimension (at most two)."""
        dirs = (
            (Direction.EAST, Direction.WEST)
            if dim is Dimension.X
            else (Direction.NORTH, Direction.SOUTH)
        )
        out = []
        for d in dirs:
            n = self.neighbor(c, d)
            if n is not None:
                out.append(n)
        return out

    def degree(self, c: Coord) -> int:
        """Number of links incident to ``c`` (2-4 on a mesh, always 4 on a torus)."""
        return len(self.neighbors(c))

    @abc.abstractmethod
    def distance(self, u: Coord, v: Coord) -> int:
        """Length of a shortest path between ``u`` and ``v``."""

    # -- vectorized views ----------------------------------------------------

    @abc.abstractmethod
    def shifted(self, grid: BoolGrid, d: Direction, fill: bool) -> BoolGrid:
        """Neighbour-view of a label grid.

        Returns an array ``s`` with ``s[c] = grid[neighbor(c, d)]`` for every
        node ``c``.  On a mesh, nodes whose ``d``-neighbour is a ghost get
        ``fill`` — the ghost ring's label (``False`` for *unsafe*, ``True``
        for *enabled*).  On a torus the view wraps and ``fill`` is ignored.

        This is the primitive the one-round rules ``unsafe_step`` /
        ``enabled_step`` and the reference fixpoints are built on; the
        dense fixpoints use its packed sibling, :meth:`frame_packed`.
        """

    def neighbor_views(
        self, grid: BoolGrid, fill: bool
    ) -> Tuple[BoolGrid, BoolGrid, BoolGrid, BoolGrid]:
        """Shifted views in (E, W, N, S) order; see :meth:`shifted`."""
        return (
            self.shifted(grid, Direction.EAST, fill),
            self.shifted(grid, Direction.WEST, fill),
            self.shifted(grid, Direction.NORTH, fill),
            self.shifted(grid, Direction.SOUTH, fill),
        )

    @abc.abstractmethod
    def frame_packed(self, frame: np.ndarray, fill: bool) -> None:
        """Write the boundary ring of a packed label frame, in place.

        ``frame`` is a ``(width + 2, 1 + ceil(height / 64))`` array of
        little-endian ``uint64`` words: frame row ``x + 1`` holds x-row
        ``x`` behind one guard word, bit ``j`` of data word ``k`` being
        cell ``(x, 64 (k - 1) + j)`` (layout: :mod:`repro.core._packed`).
        A ``(T, width + 2, ...)`` stack of frames gets every plane's own
        ring: leading axes are planes, and no plane's ring reads another.
        The ring is what the packed views read past the grid's edge:

        * the data words of frame rows 0 and ``width + 1`` (the W
          neighbours of x-row 0, the E neighbours of x-row
          ``width - 1``);
        * bit ``height`` of each row (the N neighbour of its cell
          ``y = height - 1``) and bit 63 of its guard word (the S
          neighbour of its cell ``y = 0``).

        On a mesh the ring holds the ghost label ``fill``; it is constant,
        so it is written once, into a frame whose ring bits are still zero
        (as :func:`repro.geometry._bitplanes.pack` leaves them).  On a
        torus the ring holds the wrap-around copies, is rewritten after
        every round, and ``fill`` is ignored.  This is the packed sibling of
        :meth:`neighbor_views`.
        """

    def _or_slots(self, frame: np.ndarray, south, north) -> None:
        """OR the per-row ring bits into ``frame``: ``south`` into guard
        bit 63, ``north`` into bit ``height``."""
        frame[..., 1:-1, 0] |= south << np.uint64(63)
        bit = self._height % 64
        if bit:
            frame[..., 1:-1, -1] |= north << np.uint64(bit)
        else:  # bit ``height`` is bit 0 of the next row's guard word
            frame[..., 2:, 0] |= north

    # -- misc ---------------------------------------------------------------

    def empty_grid(self, fill: bool = False) -> BoolGrid:
        """A fresh boolean grid of this topology's shape."""
        return np.full(self.shape, bool(fill), dtype=bool)

    def grid_from_coords(self, coords: Sequence[Coord]) -> BoolGrid:
        """Boolean grid that is True exactly at the given node addresses."""
        g = self.empty_grid()
        for c in coords:
            self.check(c)
            g[c] = True
        return g

    def __eq__(self, other: object) -> bool:
        return (
            type(self) is type(other)
            and self.shape == other.shape  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.shape))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._width}, {self._height})"


class Mesh2D(Topology):
    """A 2-D mesh: no wrap-around; boundary nodes have degree 2 or 3.

    The conceptual ghost ring (Section 3 of the paper) is represented by
    the ``fill`` argument of :meth:`shifted`; ghost nodes are permanently
    safe/enabled and never change status.
    """

    __slots__ = ()

    @property
    def diameter(self) -> int:
        """``(width-1) + (height-1)`` — the paper's ``2(n-1)`` for square meshes."""
        return (self._width - 1) + (self._height - 1)

    @property
    def wraps(self) -> bool:
        return False

    def neighbor(self, c: Coord, d: Direction) -> Coord | None:
        x, y = c[0] + d.offset[0], c[1] + d.offset[1]
        if 0 <= x < self._width and 0 <= y < self._height:
            return (x, y)
        return None

    def distance(self, u: Coord, v: Coord) -> int:
        return abs(u[0] - v[0]) + abs(u[1] - v[1])

    def shifted(self, grid: BoolGrid, d: Direction, fill: bool) -> BoolGrid:
        if grid.shape != self.shape:
            raise TopologyError(f"grid shape {grid.shape} != topology shape {self.shape}")
        out = np.full(self.shape, bool(fill), dtype=bool)
        if d is Direction.EAST:  # s[x, y] = grid[x+1, y]
            out[:-1, :] = grid[1:, :]
        elif d is Direction.WEST:
            out[1:, :] = grid[:-1, :]
        elif d is Direction.NORTH:  # s[x, y] = grid[x, y+1]
            out[:, :-1] = grid[:, 1:]
        else:  # SOUTH
            out[:, 1:] = grid[:, :-1]
        return out

    def frame_packed(self, frame: np.ndarray, fill: bool) -> None:
        # A ``False`` ghost ring is the zero ring the frame already has.
        if fill:
            row = _valid_row(self._height)
            frame[..., 0, 1:] = row
            frame[..., -1, 1:] = row
            self._or_slots(frame, np.uint64(1), np.uint64(1))


class Torus2D(Topology):
    """A 2-D torus: wrap-around links, every node has degree 4.

    The boundary problem of the mesh "does not exist in a 2-D torus with
    wraparound connections" (paper, Section 3 footnote), so ``fill`` is
    ignored by :meth:`shifted`.
    """

    __slots__ = ()

    @property
    def diameter(self) -> int:
        return self._width // 2 + self._height // 2

    @property
    def wraps(self) -> bool:
        return True

    def neighbor(self, c: Coord, d: Direction) -> Coord:
        return (
            (c[0] + d.offset[0]) % self._width,
            (c[1] + d.offset[1]) % self._height,
        )

    def distance(self, u: Coord, v: Coord) -> int:
        dx = abs(u[0] - v[0])
        dy = abs(u[1] - v[1])
        return min(dx, self._width - dx) + min(dy, self._height - dy)

    def shifted(self, grid: BoolGrid, d: Direction, fill: bool = False) -> BoolGrid:
        if grid.shape != self.shape:
            raise TopologyError(f"grid shape {grid.shape} != topology shape {self.shape}")
        # s[c] = grid[c + d]  <=>  roll by -d along the axis.
        axis = 0 if d.dimension is Dimension.X else 1
        amount = -d.offset[axis]
        return np.roll(grid, amount, axis=axis)

    def frame_packed(self, frame: np.ndarray, fill: bool) -> None:
        # Rows wrap; bit 0 of each row moves to its N slot and bit
        # ``height - 1`` to its S slot, replacing the previous round's.
        last = self._height - 1
        rows = frame[..., 1:-1, :]
        south = (rows[..., 1 + last // 64] >> np.uint64(last % 64)) & np.uint64(1)
        north = rows[..., 1] & np.uint64(1)
        frame[..., 0, 1:] = frame[..., -2, 1:]
        frame[..., -1, 1:] = frame[..., 1, 1:]
        frame[..., 0] = 0
        rows[..., -1] &= _valid_row(self._height)[-1]
        self._or_slots(frame, south, north)


@functools.lru_cache(maxsize=256)
def _valid_row(height: int) -> np.ndarray:
    """The data words of one packed row with every valid bit set."""
    row = np.full(-(-height // 64), ~np.uint64(0), dtype="<u8")
    if height % 64:
        row[-1] = np.uint64((1 << (height % 64)) - 1)
    row.setflags(write=False)
    return row
