"""Mechanical checkers for the paper's analytic claims.

Every theorem, lemma and corollary of Section 4 — plus the separation
properties quoted in Section 3 — has a checker here that takes a
:class:`~repro.core.pipeline.LabelingResult` (or a single region) and
returns a :class:`CheckOutcome` with a verdict and, on failure, the
witness that violates the claim.  The property-based test suite runs
them over thousands of random fault patterns; the checkers are also
exported so downstream users can audit their own runs.

Checked claims:

* **Rectangularity** — faulty blocks are disjoint full rectangles.
* **Separation** — block-block distance >= 3 (Def 2a) / >= 2 (Def 2b);
  region-region distance >= 2.
* **Theorem 1** — every disabled region is an orthogonal convex polygon.
* **Lemma 1** — every corner node of a disabled region is faulty.
* **Lemma 2** — for every node of a region, all four closed quadrants
  around it contain a corner node of the region.
* **Lemma 3** — for every node outside an orthoconvex region, some
  quadrant contains no region node.
* **Theorem 2** — each region equals the orthoconvex closure of the
  faults it covers (hence is the smallest orthoconvex polygon covering
  them).
* **Corollary** — nonfaulty nodes covered by the regions of one block
  do not exceed those of the smallest single orthoconvex polygon
  containing all the block's faults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.core.pipeline import LabelingResult
from repro.core.regions import DisabledRegion
from repro.geometry.boundary import corner_cells
from repro.geometry.cells import CellSet
from repro.geometry.orthoconvex import is_orthoconvex, orthoconvex_closure
from repro.geometry.quadrants import quadrant_extreme_corner, quadrants_with_members
from repro.geometry.rectangles import is_rectangle
from repro.geometry.staircase import connect_orthoconvex
from repro.mesh.coords import Quadrant

__all__ = [
    "CheckOutcome",
    "check_blocks_rectangular",
    "check_block_separation",
    "check_region_separation",
    "check_theorem1",
    "check_lemma1",
    "check_lemma2",
    "check_lemma3",
    "check_theorem2",
    "check_corollary",
    "check_all",
]

#: Outside nodes :func:`check_lemma3` probes per region.
_LEMMA3_SAMPLES = 64


@dataclass(frozen=True)
class CheckOutcome:
    """Verdict of one claim checker."""

    claim: str
    holds: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.holds


def _ok(claim: str) -> CheckOutcome:
    return CheckOutcome(claim, True)


def _fail(claim: str, detail: str) -> CheckOutcome:
    return CheckOutcome(claim, False, detail)


def _box(*sets: CellSet) -> Tuple[slice, slice]:
    """The smallest window holding every member of ``sets`` (or an empty one)."""
    boxes = [s.bounding_box() for s in sets if s]
    if not boxes:
        return slice(0, 0), slice(0, 0)
    x0, y0, x1, y1 = zip(*boxes)
    return slice(min(x0), max(x1) + 1), slice(min(y0), max(y1) + 1)


def _crop(cells: CellSet, box: Tuple[slice, slice]) -> CellSet:
    """``cells`` on the window ``box`` (clipped to the grid).  The geometric
    tests only look at members and treat beyond-the-grid as outside, so on
    a window holding every member they agree with the full grid, shifted
    to its origin."""
    (x0, x1, _), (y0, y1, _) = (s.indices(n) for s, n in zip(box, cells.shape))
    return cells._crop(x0, y0, (x1 - x0, y1 - y0))


def check_blocks_rectangular(result: LabelingResult) -> CheckOutcome:
    """Faulty blocks are full rectangles (Section 3)."""
    claim = "faulty blocks are rectangles"
    for b in result.blocks:
        if not is_rectangle(b.cells):
            return _fail(claim, f"block at {b.rect} is not a full rectangle")
    return _ok(claim)


def check_block_separation(result: LabelingResult) -> CheckOutcome:
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
            return _fail(
                claim,
                f"blocks {blocks[start + i].rect} and {blocks[j].rect} "
                f"at distance {dist[i, j]}",
            )
    return _ok(claim)


def check_region_separation(result: LabelingResult) -> CheckOutcome:
    """Distance between disabled regions >= 2 (Section 3)."""
    claim = "region separation >= 2"
    regions = result.regions
    n = len(regions)
    if n < 2:
        return _ok(claim)
    h = regions[0].cells.shape[1]
    # Every member cell as a row-major key tagged with its region id; the
    # stable sort keeps ids ascending among equal keys.
    coords = [r.cells._coords() for r in regions]
    key = np.concatenate([xs.astype(np.int64) * h + ys for xs, ys in coords])
    rid = np.repeat(np.arange(n), [xs.size for xs, _ in coords])
    order = np.argsort(key, kind="stable")
    key, rid = key[order], rid[order]
    # A shared cell is a hit on the key itself (distance 0); 4-adjacent
    # cells are a hit on key + h (east) or key + 1 (north, unless that
    # wraps into the next column).  A hit lands on the smallest id at the
    # target cell, which is enough to find the smallest violating pair:
    # any id it hides overlaps a smaller one there.
    best = (n * n, 2)  # (pair code i * n + j, distance); n * n is "none"
    steps = ((0, 0, slice(None)), (1, h, slice(None)), (1, 1, key % h < h - 1))
    for d, step, src in steps:
        target = key[src] + step
        pos = np.minimum(np.searchsorted(key, target), key.size - 1)
        hit = (key[pos] == target) & (rid[pos] != rid[src])
        if hit.any():
            a, b = rid[src][hit], rid[pos][hit]
            best = min(best, (int((np.minimum(a, b) * n + np.maximum(a, b)).min()), d))
    if best[0] == n * n:
        return _ok(claim)
    i, j = divmod(best[0], n)
    return _fail(claim, f"regions {i} and {j} at distance {best[1]}")


def check_theorem1(result: LabelingResult) -> CheckOutcome:
    """Theorem 1: every disabled region is an orthogonal convex polygon."""
    claim = "theorem 1 (regions are orthogonal convex polygons)"
    for k, r in enumerate(result.regions):
        if not is_orthoconvex(_crop(r.cells, _box(r.cells)), require_connected=True):
            return _fail(claim, f"region {k} ({r.cells!r}) is not orthoconvex")
    return _ok(claim)


def check_lemma1(result: LabelingResult) -> CheckOutcome:
    """Lemma 1: every corner node of a disabled region is faulty."""
    claim = "lemma 1 (corner nodes are faulty)"
    for k, r in enumerate(result.regions):
        box = _box(r.cells)
        corners = corner_cells(_crop(r.cells, box))
        faults = _crop(r.faults, box)
        if not corners.issubset(faults):
            x0, y0 = box[0].start, box[1].start
            bad = [(x + x0, y + y0) for x, y in corners.difference(faults).coords()[:3]]
            return _fail(claim, f"region {k} has nonfaulty corners at {bad}")
    return _ok(claim)


def check_lemma2(region: DisabledRegion) -> CheckOutcome:
    """Lemma 2: all four closed quadrants around every region node contain a
    corner node of the region (and the constructive extreme is a corner)."""
    claim = "lemma 2 (every quadrant holds a corner node)"
    box = _box(region.cells)
    x0, y0 = box[0].start, box[1].start
    cells = _crop(region.cells, box)
    corners = corner_cells(cells)
    for x, y in cells:
        u = (x + x0, y + y0)
        for q in Quadrant:
            w = quadrant_extreme_corner(cells, (x, y), q)
            if w is None:
                return _fail(claim, f"quadrant {q} around {u} holds no region node")
            if w not in corners:
                w = (w[0] + x0, w[1] + y0)
                return _fail(
                    claim, f"extreme {w} of quadrant {q} around {u} is not a corner"
                )
    return _ok(claim)


def check_lemma3(region: DisabledRegion) -> CheckOutcome:
    """Lemma 3: for nodes outside the (orthoconvex) region, some quadrant is
    empty of region nodes.  Checks every outside node of the region's
    bounding box neighbourhood, capped at ``_LEMMA3_SAMPLES`` per region."""
    claim = "lemma 3 (outside nodes have an empty quadrant)"
    x0, y0, x1, y1 = region.cells.bounding_box()
    x0, y0 = max(0, x0 - 1), max(0, y0 - 1)
    cells = _crop(region.cells, (slice(x0, x1 + 2), slice(y0, y1 + 2)))
    checked = 0
    for x, y in np.argwhere(~cells.mask).tolist():
        if all(quadrants_with_members(cells, (x, y)).values()):
            return _fail(
                claim, f"outside node ({x + x0},{y + y0}) sees all 4 quadrants"
            )
        checked += 1
        if checked >= _LEMMA3_SAMPLES:
            return _ok(claim)
    return _ok(claim)


def check_theorem2(result: LabelingResult) -> CheckOutcome:
    """Theorem 2: each region is the smallest orthoconvex polygon covering
    its faults — mechanically, the region equals the orthoconvex closure
    of its fault set."""
    claim = "theorem 2 (region == orthoconvex closure of its faults)"
    for k, r in enumerate(result.regions):
        box = _box(r.cells, r.faults)
        cells = _crop(r.cells, box)
        closure = orthoconvex_closure(_crop(r.faults, box))
        if closure != cells:
            extra = cells.difference(closure)
            missing = closure.difference(cells)
            return _fail(
                claim,
                f"region {k}: closure mismatch "
                f"(+{len(extra)} region-only, -{len(missing)} closure-only cells)",
            )
    return _ok(claim)


def check_corollary(result: LabelingResult) -> CheckOutcome:
    """Corollary: per faulty block, nonfaulty nodes covered by its regions
    <= nonfaulty nodes in the smallest orthoconvex polygon containing all
    the block's faults (computed as closure + minimal staircase joins, which
    never leave the faults' bounding box, so each block counts on a window)."""
    claim = "corollary (regions cover <= smallest single-OCP nonfaulty nodes)"
    faulty = result.labels.faulty
    disabled = result.labels.disabled
    for b in result.blocks:
        if not b.faults:
            continue
        box = _box(b.cells, b.faults)
        nonfaulty = ~faulty[box]
        in_regions = int((_crop(b.cells, box).mask & disabled[box] & nonfaulty).sum())
        single_ocp = connect_orthoconvex(_crop(b.faults, box))
        in_ocp = int((single_ocp.mask & nonfaulty).sum())
        if in_regions > in_ocp:
            return _fail(
                claim,
                f"block {b.rect}: regions keep {in_regions} nonfaulty disabled, "
                f"single OCP would keep {in_ocp}",
            )
    return _ok(claim)


#: The whole-result checkers run by :func:`check_all`, keyed by claim id.
RESULT_CHECKS: Dict[str, Callable[[LabelingResult], CheckOutcome]] = {
    "rectangular": check_blocks_rectangular,
    "block_separation": check_block_separation,
    "region_separation": check_region_separation,
    "theorem1": check_theorem1,
    "lemma1": check_lemma1,
    "theorem2": check_theorem2,
    "corollary": check_corollary,
}


def check_all(
    result: LabelingResult, include_quadrant_lemmas: bool = False
) -> List[CheckOutcome]:
    """Run every checker; optionally also the per-region quadrant lemmas
    (quadratic in region size, so off by default for large sweeps)."""
    outcomes = [chk(result) for chk in RESULT_CHECKS.values()]
    if include_quadrant_lemmas:
        for r in result.regions:
            outcomes.append(check_lemma2(r))
            outcomes.append(check_lemma3(r))
    return outcomes
