"""Cell sets: grid-shaped boolean masks with set semantics.

Almost everything the paper manipulates — fault sets, faulty blocks,
disabled regions, polygons — is a finite set of grid cells.
:class:`CellSet` wraps a ``(width, height)`` boolean mask and offers the
set algebra, geometry accessors and NumPy views the rest of the library
is built on.  Masks are copied on construction and never mutated, so
``CellSet`` values can be shared freely and used as dict keys.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

import numpy as np

from repro.errors import GeometryError
from repro.types import BoolGrid, Coord

__all__ = ["CellSet"]


class CellSet:
    """An immutable set of cells on a fixed ``(width, height)`` grid."""

    __slots__ = ("_mask", "_count", "_hash", "_bbox")

    def __init__(self, mask: BoolGrid):
        m = np.array(mask, dtype=bool, order="C", copy=True)
        if m.ndim != 2:
            raise GeometryError(f"cell mask must be 2-D, got ndim={m.ndim}")
        m.setflags(write=False)
        self._mask = m
        self._count = int(m.sum())
        self._hash: int | None = None
        self._bbox: Tuple[int, int, int, int] | None = None

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
    def _from_owned(cls, mask: BoolGrid, count: int | None = None) -> "CellSet":
        """Zero-copy internal constructor: takes ownership of ``mask``.

        ``mask`` must be a freshly allocated 2-D C-order boolean array
        that no caller will mutate afterwards; ``count`` (if given) must
        equal ``mask.sum()``.  Used by the vectorized geometry backend,
        where the public copying constructor would double the cost of
        component extraction.
        """
        mask.setflags(write=False)
        obj = cls.__new__(cls)
        obj._mask = mask
        obj._count = int(mask.sum()) if count is None else count
        obj._hash = None
        obj._bbox = None
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
        """The underlying read-only boolean mask, indexed ``[x, y]``."""
        return self._mask

    @property
    def shape(self) -> Tuple[int, int]:
        """Grid shape ``(width, height)``."""
        return self._mask.shape  # type: ignore[return-value]

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __contains__(self, c: object) -> bool:
        if not (isinstance(c, tuple) and len(c) == 2):
            return False
        x, y = c
        w, h = self.shape
        return 0 <= x < w and 0 <= y < h and bool(self._mask[x, y])

    def __iter__(self) -> Iterator[Coord]:
        xs, ys = np.nonzero(self._mask)
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
        return CellSet(self._mask | other._mask)

    def intersection(self, other: "CellSet") -> "CellSet":
        """Set intersection; both operands must share a grid."""
        self._check_same_grid(other)
        return CellSet(self._mask & other._mask)

    def difference(self, other: "CellSet") -> "CellSet":
        """Set difference ``self - other``; both operands must share a grid."""
        self._check_same_grid(other)
        return CellSet(self._mask & ~other._mask)

    def issubset(self, other: "CellSet") -> bool:
        """Whether every cell of ``self`` is in ``other``."""
        self._check_same_grid(other)
        return bool(np.all(~self._mask | other._mask))

    def isdisjoint(self, other: "CellSet") -> bool:
        """Whether the two sets share no cell."""
        self._check_same_grid(other)
        return not bool(np.any(self._mask & other._mask))

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def __le__(self, other: "CellSet") -> bool:
        return self.issubset(other)

    # -- geometry ---------------------------------------------------------------

    def bounding_box(self) -> Tuple[int, int, int, int]:
        """Inclusive bounding box ``(x_min, y_min, x_max, y_max)``.

        Computed once and cached, like the hash: the mask never changes.

        Raises
        ------
        GeometryError
            If the set is empty.
        """
        if self._bbox is None:
            if not self._count:
                raise GeometryError("bounding box of an empty cell set")
            xs = np.flatnonzero(self._mask.any(axis=1))
            ys = np.flatnonzero(self._mask.any(axis=0))
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
        w, h = self.shape
        xs, ys = np.nonzero(self._mask)
        xs = xs + dx
        ys = ys + dy
        if len(xs) and (
            xs.min() < 0 or ys.min() < 0 or xs.max() >= w or ys.max() >= h
        ):
            raise GeometryError(f"translation by ({dx}, {dy}) leaves grid {self.shape}")
        mask = np.zeros_like(self._mask)
        mask[xs, ys] = True
        return CellSet(mask)

    # -- dunder ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CellSet):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self._mask, other._mask))

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.shape, self._mask.tobytes()))
        return self._hash

    def __repr__(self) -> str:
        return f"CellSet(shape={self.shape}, count={self._count})"
