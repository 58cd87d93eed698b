"""The all-pairs block-separation check: the oracle for the ``x0`` sweep
of :func:`repro.core.theorems.check_block_separation`.

It takes the ``Rect.distance`` of every pair of blocks, a band of rows
at a time, and reports the violating pair ``(i, j)``, ``i < j``, that
comes first in block order.  Quadratic in blocks; the sweep must return
the same outcome, witness text included.
"""

from __future__ import annotations

import numpy as np

from repro.core.theorems import CheckOutcome


def check_block_separation_reference(result) -> CheckOutcome:
    """Distance between faulty blocks >= 3 (Def 2a) / >= 2 (Def 2b)."""
    need = result.definition.min_block_separation
    claim = f"block separation >= {need}"
    blocks = result.blocks
    rects = np.array(
        [(b.rect.x0, b.rect.y0, b.rect.x1, b.rect.y1) for b in blocks], dtype=np.int64
    ).reshape(-1, 4)
    lo, hi = rects[:, :2], rects[:, 2:]
    # Rect.distance of a band of rows against every block at once; the
    # band bounds the pair matrix on meshes with many blocks.
    band = 1 + (1 << 20) // max(1, len(blocks))
    for start in range(0, len(blocks), band):
        rows = slice(start, start + band)
        gap = np.maximum(lo[rows, None], lo) - np.minimum(hi[rows, None], hi)
        dist = np.maximum(gap, 0).sum(axis=2)
        bad = np.argwhere(np.triu(dist < need, start + 1))  # pairs i < j only
        if bad.size:
            i, j = bad[0]
            return CheckOutcome(
                claim,
                False,
                f"blocks {blocks[start + i].rect} and {blocks[j].rect} "
                f"at distance {dist[i, j]}",
            )
    return CheckOutcome(claim, True)
