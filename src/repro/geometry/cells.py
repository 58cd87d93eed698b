"""Cell sets: grid-shaped boolean masks with set semantics.

Almost everything the paper manipulates — fault sets, faulty blocks,
disabled regions, polygons — is a finite set of grid cells.
:class:`CellSet` is an immutable set of cells on a ``(width, height)``
grid and offers the set algebra, geometry accessors and NumPy views the
rest of the library is built on.  Values can be shared freely and used
as dict keys.

A set built from a mask copies it.  The geometry extractors instead
build sets *lazily*: each knows its grid shape, count and inclusive
bounding box, plus either a slice of member arrays shared by every
component of one extraction or nothing at all (the set fills its
bounding box).  The tight bounding-box window and the full-grid
:attr:`CellSet.mask` are built on first read and cached read-only, so
``len``, ``bool``, :meth:`CellSet.bounding_box` and
:meth:`CellSet.diameter` cost no grid work.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import GeometryError
from repro.types import BoolGrid, Coord

__all__ = ["CellSet"]

#: Inclusive bounding box ``(x_min, y_min, x_max, y_max)``.
BBox = Tuple[int, int, int, int]

#: Members ``(xs[i], ys[i])`` for ``lo <= i < hi``, in row-major order.
MemberSlice = Tuple[np.ndarray, np.ndarray, int, int]


class CellSet:
    """An immutable set of cells on a fixed ``(width, height)`` grid."""

    __slots__ = ("_shape", "_count", "_bbox", "_members", "_window", "_mask", "_hash")

    def __init__(self, mask: BoolGrid):
        m = np.array(mask, dtype=bool, order="C", copy=True)
        if m.ndim != 2:
            raise GeometryError(f"cell mask must be 2-D, got ndim={m.ndim}")
        m.setflags(write=False)
        self._shape: Tuple[int, int] = m.shape  # type: ignore[assignment]
        self._count = int(m.sum())
        self._bbox: Optional[BBox] = None
        self._members: Optional[MemberSlice] = None
        self._window: Optional[np.ndarray] = None
        self._mask: Optional[np.ndarray] = m
        self._hash: Optional[int] = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def empty(cls, shape: Tuple[int, int]) -> "CellSet":
        """The empty set on a grid of the given shape."""
        return cls(np.zeros(shape, dtype=bool))

    @classmethod
    def full(cls, shape: Tuple[int, int]) -> "CellSet":
        """The set of all cells of a grid of the given shape."""
        return cls(np.ones(shape, dtype=bool))

    @classmethod
    def _lazy(
        cls,
        shape: Tuple[int, int],
        bbox: Optional[BBox],
        count: int,
        members: Optional[MemberSlice] = None,
    ) -> "CellSet":
        """Zero-copy internal constructor from a known bounding box.

        ``members`` is a :data:`MemberSlice` of arrays the caller never
        mutates, or ``None`` when the set fills its bounding box.
        ``count`` must be the member count and ``bbox`` the tight
        inclusive bounding box inside ``shape`` (ignored when ``count``
        is 0).  Nothing is checked: callers derive all of it from member
        scans or sets they already hold.
        """
        obj = cls.__new__(cls)
        obj._shape = shape
        obj._count = count
        obj._bbox = bbox if count else None
        obj._members = members
        obj._window = None
        obj._mask = None
        obj._hash = None
        return obj

    @classmethod
    def from_coords(cls, shape: Tuple[int, int], coords: Iterable[Coord]) -> "CellSet":
        """A set containing exactly the given ``(x, y)`` cells.

        Raises
        ------
        GeometryError
            If any coordinate is outside the grid.
        """
        mask = np.zeros(shape, dtype=bool)
        w, h = shape
        for x, y in coords:
            if not (0 <= x < w and 0 <= y < h):
                raise GeometryError(f"cell ({x}, {y}) outside grid {shape}")
            mask[x, y] = True
        return cls(mask)

    # -- core accessors --------------------------------------------------------

    @property
    def mask(self) -> BoolGrid:
        """The read-only full-grid boolean mask, indexed ``[x, y]``.

        Built from the bounding-box window on first read for lazily
        constructed sets, then cached.
        """
        m = self._mask
        if m is None:
            m = np.zeros(self._shape, dtype=bool)
            if self._count:
                x0, y0, x1, y1 = self._bbox  # type: ignore[misc]
                m[x0 : x1 + 1, y0 : y1 + 1] = self._window_view()
            m.setflags(write=False)
            self._mask = m
        return m

    @property
    def shape(self) -> Tuple[int, int]:
        """Grid shape ``(width, height)``."""
        return self._shape

    def _window_view(self) -> np.ndarray:
        """Members on the tight bounding-box window, read-only and indexed
        ``[x - x_min, y - y_min]``; ``(0, 0)``-shaped for the empty set."""
        win = self._window
        if win is None:
            if not self._count:
                win = np.zeros((0, 0), dtype=bool)
            else:
                x0, y0, x1, y1 = self.bounding_box()
                if self._mask is not None:
                    win = self._mask[x0 : x1 + 1, y0 : y1 + 1]
                elif self._members is None:
                    win = np.ones((x1 - x0 + 1, y1 - y0 + 1), dtype=bool)
                else:
                    xs, ys, lo, hi = self._members
                    win = np.zeros((x1 - x0 + 1, y1 - y0 + 1), dtype=bool)
                    win[xs[lo:hi] - x0, ys[lo:hi] - y0] = True
            win.setflags(write=False)
            self._window = win
        return win

    def _coords(self) -> Tuple[np.ndarray, np.ndarray]:
        """Member ``(xs, ys)`` arrays in row-major order (``np.nonzero`` of
        the mask), read without building the full-grid mask when the set
        was constructed lazily."""
        if self._members is not None:
            xs, ys, lo, hi = self._members
            return xs[lo:hi], ys[lo:hi]
        if self._mask is not None:
            return np.nonzero(self._mask)  # type: ignore[return-value]
        wx, wy = np.nonzero(self._window_view())
        if not self._count:
            return wx, wy
        return wx + self._bbox[0], wy + self._bbox[1]  # type: ignore[index]

    def _crop(self, x0: int, y0: int, shape: Tuple[int, int]) -> "CellSet":
        """The members on the ``shape`` window of the grid at origin
        ``(x0, y0)``, shifted to that origin.  A window holding every
        member shares this set's bounding-box window; any other window
        must lie inside the grid, and members outside it are dropped."""
        if not self._count:
            return CellSet._lazy(shape, None, 0)
        bx0, by0, bx1, by1 = self.bounding_box()
        w, h = shape
        if x0 <= bx0 and y0 <= by0 and bx1 < x0 + w and by1 < y0 + h:
            bbox = (bx0 - x0, by0 - y0, bx1 - x0, by1 - y0)
            out = CellSet._lazy(shape, bbox, self._count)
            out._window = self._window_view()
            return out
        return CellSet(self.mask[x0 : x0 + w, y0 : y0 + h])

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __contains__(self, c: object) -> bool:
        if not (isinstance(c, tuple) and len(c) == 2):
            return False
        x, y = c
        if self._mask is not None:
            w, h = self._shape
            return 0 <= x < w and 0 <= y < h and bool(self._mask[x, y])
        if not self._count:
            return False
        x0, y0, x1, y1 = self._bbox  # type: ignore[misc]
        return (
            x0 <= x <= x1
            and y0 <= y <= y1
            and bool(self._window_view()[x - x0, y - y0])
        )

    def __iter__(self) -> Iterator[Coord]:
        xs, ys = self._coords()
        for x, y in zip(xs.tolist(), ys.tolist()):
            yield (x, y)

    def coords(self) -> List[Coord]:
        """All member cells in row-major order."""
        return list(self)

    # -- set algebra -----------------------------------------------------------

    def _check_same_grid(self, other: "CellSet") -> None:
        if self.shape != other.shape:
            raise GeometryError(
                f"cell sets live on different grids: {self.shape} vs {other.shape}"
            )

    def union(self, other: "CellSet") -> "CellSet":
        """Set union; both operands must share a grid."""
        self._check_same_grid(other)
        return CellSet(self.mask | other.mask)

    def intersection(self, other: "CellSet") -> "CellSet":
        """Set intersection; both operands must share a grid."""
        self._check_same_grid(other)
        return CellSet(self.mask & other.mask)

    def difference(self, other: "CellSet") -> "CellSet":
        """Set difference ``self - other``; both operands must share a grid."""
        self._check_same_grid(other)
        return CellSet(self.mask & ~other.mask)

    def issubset(self, other: "CellSet") -> bool:
        """Whether every cell of ``self`` is in ``other``."""
        self._check_same_grid(other)
        return bool(np.all(~self.mask | other.mask))

    def isdisjoint(self, other: "CellSet") -> bool:
        """Whether the two sets share no cell."""
        self._check_same_grid(other)
        return not bool(np.any(self.mask & other.mask))

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def __le__(self, other: "CellSet") -> bool:
        return self.issubset(other)

    # -- geometry ---------------------------------------------------------------

    def bounding_box(self) -> BBox:
        """Inclusive bounding box ``(x_min, y_min, x_max, y_max)``.

        Known up front for lazily built sets; otherwise computed from the
        mask once and cached, like the hash: the members never change.

        Raises
        ------
        GeometryError
            If the set is empty.
        """
        if self._bbox is None:
            if not self._count:
                raise GeometryError("bounding box of an empty cell set")
            xs = np.flatnonzero(self.mask.any(axis=1))
            ys = np.flatnonzero(self.mask.any(axis=0))
            self._bbox = (int(xs[0]), int(ys[0]), int(xs[-1]), int(ys[-1]))
        return self._bbox

    def diameter(self) -> int:
        """Manhattan diameter: max ``d(u, v)`` over member pairs.

        For the rectilinear sets this library manipulates, the Manhattan
        diameter equals the bounding-box semi-perimeter, which is what the
        paper's round bound ``max{d(B)}`` refers to.  Empty sets have
        diameter 0.
        """
        if not self._count:
            return 0
        x0, y0, x1, y1 = self.bounding_box()
        return (x1 - x0) + (y1 - y0)

    def translated(self, dx: int, dy: int) -> "CellSet":
        """The set shifted by ``(dx, dy)``.

        Raises
        ------
        GeometryError
            If any cell would leave the grid.
        """
        w, h = self._shape
        if self._count:
            x0, y0, x1, y1 = self.bounding_box()
            if x0 + dx < 0 or y0 + dy < 0 or x1 + dx >= w or y1 + dy >= h:
                raise GeometryError(
                    f"translation by ({dx}, {dy}) leaves grid {self.shape}"
                )
        return self._crop(-dx, -dy, self._shape)

    # -- dunder ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        # Sets are equal iff they agree on grid, count, bounding box and the
        # window inside it, however each was constructed; a window filled
        # by the count needs no comparison.
        if not isinstance(other, CellSet):
            return NotImplemented
        if self._shape != other._shape or self._count != other._count:
            return False
        if not self._count:
            return True
        box = self.bounding_box()
        if box != other.bounding_box():
            return False
        x0, y0, x1, y1 = box
        return self._count == (x1 - x0 + 1) * (y1 - y0 + 1) or bool(
            np.array_equal(self._window_view(), other._window_view())
        )

    def __hash__(self) -> int:
        if self._hash is None:
            if not self._count:
                self._hash = hash((self._shape, 0))
            else:
                self._hash = hash(
                    (
                        self._shape,
                        self._count,
                        self.bounding_box(),
                        self._window_view().tobytes(),
                    )
                )
        return self._hash

    def __repr__(self) -> str:
        return f"CellSet(shape={self.shape}, count={self._count})"
