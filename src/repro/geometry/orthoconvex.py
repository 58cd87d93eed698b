"""Orthogonal convexity: tests and minimal closures.

Definition 1 of the paper: a region is *orthogonal convex* iff for any
horizontal or vertical line, whenever two nodes on the line are inside
the region, every node on the line between them is inside too.  For a
set of grid cells this is exactly *per-row and per-column contiguity*:
the member cells of each row form one unbroken run, and likewise for
each column.

Regions are viewed as unions of closed unit squares, so two cells that
touch only at a corner still belong to one region (8-connectivity); the
classic examples behave as the paper states: **L**, **T** and **+**
shapes are orthogonal convex, **U** and **H** shapes are not.

The *orthogonal convex closure* of a cell set ``S`` is the least
superset of ``S`` closed under span filling — i.e. the unique smallest
orthogonal convex region containing ``S``.  Theorem 2 of the paper says
each disabled region equals the closure of the faults it contains; the
theorem checkers in :mod:`repro.core.theorems` verify precisely that.

All operations are vectorized: span filling is two ``logical_or``
scans per axis, and the closure iterates them to a fixpoint (it
converges in at most ``width + height`` sweeps; in practice a handful).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import GeometryError
from repro.geometry.cells import CellSet
from repro.geometry.components import is_connected
from repro.types import BoolGrid

__all__ = [
    "fill_spans",
    "is_orthoconvex",
    "orthoconvex_closure",
    "row_runs",
    "column_runs",
]


def _span_mask(mask: BoolGrid, axis: int) -> BoolGrid:
    """Mask of cells lying between the first and last member of each line.

    ``out[c]`` is True iff the line through ``c`` along ``axis`` has a
    member cell at or before ``c`` *and* one at or after ``c``.
    """
    forward = np.logical_or.accumulate(mask, axis=axis)
    backward = np.flip(
        np.logical_or.accumulate(np.flip(mask, axis=axis), axis=axis), axis=axis
    )
    return forward & backward


def fill_spans(mask: BoolGrid, axis: int) -> BoolGrid:
    """Fill every gap between the extreme members of each grid line.

    ``axis=0`` fills horizontally (within rows of constant ``y``);
    ``axis=1`` fills vertically (within columns of constant ``x``).
    Returns a new mask; the input is not modified.
    """
    if axis not in (0, 1):
        raise ValueError(f"axis must be 0 or 1, got {axis}")
    return _span_mask(mask, axis)


def is_orthoconvex(cells: CellSet, require_connected: bool = True) -> bool:
    """Whether a cell set is an orthogonal convex region.

    Parameters
    ----------
    cells:
        The set to test.  The empty set is not considered a region.
    require_connected:
        Also require 8-connectivity (a single polygon, corner contacts
        allowed), which is part of what Theorem 1 asserts for disabled
        regions.  Set to False to test span-contiguity alone.
    """
    if not cells:
        return False
    mask = cells.mask
    if np.any(_span_mask(mask, 0) & ~mask):
        return False
    if np.any(_span_mask(mask, 1) & ~mask):
        return False
    if require_connected and not is_connected(cells, connectivity=8):
        return False
    return True


def orthoconvex_closure(cells: CellSet) -> CellSet:
    """The smallest orthogonal convex *set* containing ``cells``.

    Iterates horizontal and vertical span filling to a fixpoint.  The
    operator is monotone and inflationary on a finite lattice, so the
    fixpoint exists, is unique, and is the least orthoconvex superset.

    Note that the closure of a disconnected input may itself be
    disconnected (e.g. two cells two diagonal steps apart); when a single
    *polygon* is needed, pass the result through
    :func:`repro.geometry.staircase.connect_orthoconvex`.

    Raises
    ------
    GeometryError
        If the iteration exceeds ``width + height + 2`` sweeps
        (impossible for well-formed inputs; guards against grid
        corruption).
    """
    if not cells:
        return cells
    w, h = cells.shape
    budget = w + h + 2
    mask = cells.mask.copy()
    for _ in range(budget):
        new = fill_spans(mask, 0)
        new = fill_spans(new, 1)
        if np.array_equal(new, mask):
            return CellSet(mask)
        mask = new
    raise GeometryError(f"orthoconvex closure failed to converge in {budget} sweeps")


def row_runs(cells: CellSet) -> List[Tuple[int, int, int]]:
    """Decompose a *row-contiguous* set into per-row runs.

    Returns a list of ``(y, x_min, x_max)`` triples, one per occupied
    row, ordered by ``y``.  Useful for boundary construction and SVG
    export of orthoconvex polygons.

    Raises
    ------
    GeometryError
        If some occupied row is not a single contiguous run.
    """
    first, last, counts, lines = _line_extents(cells.mask, axis=0)
    bad = lines[(counts[lines] != last[lines] - first[lines] + 1)]
    if bad.size:
        raise GeometryError(f"row y={int(bad[0])} is not a contiguous run")
    return [
        (y, int(first[y]), int(last[y])) for y in lines.tolist()
    ]


def column_runs(cells: CellSet) -> List[Tuple[int, int, int]]:
    """Per-column analogue of :func:`row_runs`: ``(x, y_min, y_max)`` triples."""
    first, last, counts, lines = _line_extents(cells.mask, axis=1)
    bad = lines[(counts[lines] != last[lines] - first[lines] + 1)]
    if bad.size:
        raise GeometryError(f"column x={int(bad[0])} is not a contiguous run")
    return [
        (x, int(first[x]), int(last[x])) for x in lines.tolist()
    ]


def _line_extents(mask: BoolGrid, axis: int):
    """Whole-grid run-length summary of every grid line.

    For ``axis=0`` lines are rows of constant ``y`` (extents along x);
    for ``axis=1`` columns of constant ``x`` (extents along y).  Returns
    ``(first, last, counts, occupied)`` index arrays — one entry per
    line, with ``occupied`` listing the lines holding any member.  A
    line is a single contiguous run iff ``count == last - first + 1``,
    which is how the callers check contiguity without per-line loops.
    """
    along = 0 if axis == 0 else 1           # reduction axis
    length = mask.shape[along]
    counts = mask.sum(axis=along)
    first = np.argmax(mask, axis=along)
    flipped = np.flip(mask, axis=along)
    last = length - 1 - np.argmax(flipped, axis=along)
    occupied = np.nonzero(counts > 0)[0]
    return first, last, counts, occupied
