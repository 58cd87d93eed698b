"""Bit-packed label planes, and the vertical runs read off their words.

Every label of the paper is one bit, so a plane packs 64 cells to a
word.  The dense fixpoints of :mod:`repro.core._packed` iterate on this
layout, and extraction cuts a mask into its maximal vertical runs on
it, so a mask costs time in its words and runs, not its cells.

**Layout.**  A plane of shape ``(width, height)`` lives in a *frame* of
``width + 2`` rows of ``1 + ceil(height / 64)`` little-endian ``'<u8'``
words.  Frame row ``x + 1`` holds x-row ``x``: word 0 is a guard word,
and bit ``j`` of data word ``k`` is cell ``(x, 64 (k - 1) + j)``.  Rows
0 and ``width + 1`` are the ghost rows.  A ``(T, width, height)`` stack
of planes lives in a ``(T, width + 2, words)`` frame, each plane with
its own ghost rows.

**Runs.**  Read the frame as one flat word array and take every bit
against the bit below it (a 1-bit left shift, with the carry from the
previous word): the XOR marks where a run starts and the slot just
past where it ends.  Guard words, padding bits and ghost rows are
zero, so no run continues from one row (one column ``x`` of the grid)
into the next, and the marks pair up in order, start then stop.  Only
the nonzero bytes of the XOR are unpacked, so a column that one run
fills costs two bytes, not ``height`` cells.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

WORD = np.dtype("<u8")
_ONE = np.uint64(1)
_TOP = np.uint64(63)

#: Vertical runs ``(col, y0, y1)``: the cells ``(col[r], y)`` for
#: ``y0[r] <= y <= y1[r]``, in row-major order.
Runs = Tuple[np.ndarray, np.ndarray, np.ndarray]


def pack(planes: np.ndarray) -> np.ndarray:
    """The frame of a ``(..., width, height)`` plane or stack of planes:
    ring, padding and guard bits all zero."""
    *lead, width, height = planes.shape
    frame = np.zeros((*lead, width + 2, 1 + -(-height // 64)), dtype=WORD)
    rows = np.packbits(planes, axis=-1, bitorder="little")
    frame.view(np.uint8)[..., 1:-1, 8 : 8 + rows.shape[-1]] = rows
    return frame


def unpack(frame: np.ndarray, height: int) -> np.ndarray:
    """The ``(..., width, height)`` bool planes held by ``frame``."""
    rows = frame.view(np.uint8)[..., 1:-1, 8 : 8 + -(-height // 8)]
    return np.unpackbits(rows, axis=-1, count=height, bitorder="little").view(bool)


def scan_runs(planes: np.ndarray) -> Runs:
    """The maximal vertical runs of a ``(width, height)`` mask or a
    ``(T, width, height)`` stack of masks, in row-major order.

    A run's ``col`` is its frame row less one: ``x`` for a single mask,
    ``t * (width + 2) + x`` for plane ``t`` of a stack, so the two ghost
    rows of every plane's frame leave two empty columns between planes.
    """
    return frame_runs(pack(planes))


def frame_runs(frame: np.ndarray) -> Runs:
    """:func:`scan_runs` of the planes packed in ``frame``."""
    row_bits = 64 * frame.shape[-1]
    flat = frame.reshape(-1)
    edges = flat << _ONE
    edges[1:] |= flat[:-1] >> _TOP
    edges ^= flat
    at = np.flatnonzero(edges != 0)
    octets = edges[at].view(np.uint8)
    bits = np.flatnonzero(np.unpackbits(octets, bitorder="little").view(bool))
    marks = at[bits >> 6] * 64 + (bits & 63)
    start, stop = marks[0::2], marks[1::2]
    row = start // row_bits
    y0 = start - row * row_bits - 64
    # A run never leaves its frame row, so its end is its start plus its
    # length less one.
    return row - 1, y0, y0 + (stop - start - 1)


def expand_runs(
    col: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Every cell of the runs ``lo..hi`` (inclusive) of the lines ``col``,
    as ``(col, pos)`` arrays in run order, then position order."""
    n = hi - lo + 1
    # Output slot j of a run starting at slot s holds lo + (j - s).
    return np.repeat(col, n), np.arange(n.sum()) - np.repeat(np.cumsum(n) - n - lo, n)
