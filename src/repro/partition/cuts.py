"""Guillotine-cut heuristic for the open partition problem.

Recursively splits the fault set along the widest fault-free axis gap:
if some column (or row) inside the fault bounding box contains no
fault, the faults on either side can be covered by separate polygons
whose bounding boxes — and hence the polygons themselves — stay at
least 2 apart, the paper's disabled-region separation.  Leaves are
covered by their minimal connected orthoconvex polygon.

Guillotine cuts are the natural dual of the paper's Figure 1 (c)/(d)
remark that some disabled regions "can be further partitioned": a
region with an internal fault-free band is exactly such a case.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import PartitionError
from repro.geometry.cells import CellSet
from repro.geometry.staircase import connect_orthoconvex
from repro.partition.evaluate import FaultCover

__all__ = ["guillotine_cover"]


def _best_gap(mask: np.ndarray, axis: int) -> tuple[int, int] | None:
    """Widest internal run of fault-free lines along ``axis``.

    Returns ``(start, length)`` of the run (in occupied-bounding-box
    coordinates) or None if every line inside the bounding box holds a
    fault.
    """
    occupied = mask.any(axis=1 - axis)
    idx = np.nonzero(occupied)[0]
    lo, hi = int(idx[0]), int(idx[-1])
    best: tuple[int, int] | None = None
    run_start = None
    for pos in range(lo + 1, hi + 1):
        if not occupied[pos]:
            if run_start is None:
                run_start = pos
        else:
            if run_start is not None:
                length = pos - run_start
                if best is None or length > best[1]:
                    best = (run_start, length)
                run_start = None
    return best


def _split(cells: CellSet) -> List[CellSet]:
    """Recursive guillotine decomposition of a fault set."""
    mask = cells.mask
    for axis in (0, 1):
        gap = _best_gap(mask, axis)
        if gap is None:
            continue
        start, length = gap
        low = mask.copy()
        high = mask.copy()
        if axis == 0:
            low[start:, :] = False
            high[: start + length, :] = False
        else:
            low[:, start:] = False
            high[:, : start + length] = False
        return _split(CellSet(low)) + _split(CellSet(high))
    return [cells]


def guillotine_cover(faults: CellSet) -> FaultCover:
    """Cover a fault set via recursive fault-free-band splitting.

    Raises
    ------
    PartitionError
        If ``faults`` is empty.
    """
    if not faults:
        raise PartitionError("no faults to cover")
    parts = _split(faults)
    polygons = [connect_orthoconvex(p) for p in parts]
    return FaultCover.build(faults, polygons)
