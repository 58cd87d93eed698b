"""The member-scan run cut: the oracle for the word-level run scan.

Extraction once cut a mask into its maximal vertical runs from the
row-major ``np.nonzero`` scan of its members, one break wherever the
column changes or ``y`` skips.  That costs time in member cells; the
production cut (:func:`repro.geometry._bitplanes.scan_runs`) reads the
packed words instead, and must return exactly these runs.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def scan_runs_reference(planes: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The maximal vertical runs ``(col, y0, y1)`` of a ``(width,
    height)`` mask or a ``(T, width, height)`` stack, in row-major order,
    with the production column numbering: ``x`` for one mask and
    ``t * (width + 2) + x`` for plane ``t`` of a stack."""
    width, height = planes.shape[-2:]
    rows, ys = np.nonzero(planes.reshape(-1, height))
    n = rows.size
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    new_run = np.empty(n, dtype=bool)
    new_run[0] = True
    np.logical_or(rows[1:] != rows[:-1], ys[1:] != ys[:-1] + 1, out=new_run[1:])
    start = new_run.nonzero()[0]
    stop = np.append(start[1:], n) - 1
    rows = rows[start]
    return rows + 2 * (rows // width), ys[start], ys[stop]
