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
from typing import Callable, Dict, Iterable, List, Tuple

import numpy as np

from repro.core.pipeline import LabelingResult
from repro.core.regions import DisabledRegion
from repro.geometry._bitplanes import expand_runs
from repro.geometry.boundary import corner_cells
from repro.geometry.cells import CellSet, _gather_runs
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

#: Block pairs :func:`check_block_separation` measures at once; bounds
#: the memory of a crowded sweep window.
_SEPARATION_BAND = 1 << 20

#: Member cells ``(ids, xs, ys)`` tagged with the index of their set.
_Tagged = Tuple[np.ndarray, np.ndarray, np.ndarray]


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


def _members(sets: Iterable[CellSet]) -> _Tagged:
    """Every member of ``sets`` as int64 ``(ids, xs, ys)``, tagged with the
    index of its set and ordered by ``(id, x, y)``.  All sets' runs are
    gathered first (an extracted set reads its run slice, a block one run
    per column, with no grid scan) and expanded to cells in one pass."""
    ids, x, y0, y1 = _gather_runs(list(sets))
    tagged = (np.repeat(ids, y1 - y0 + 1), *expand_runs(x, y0, y1))
    ids, xs, ys = (a.astype(np.int64, copy=False) for a in tagged)
    return ids, xs, ys


def _isin(keys: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Whether each of ``targets`` is one of the ascending ``keys``."""
    if not keys.size:
        return np.zeros(targets.shape, dtype=bool)
    pos = np.minimum(np.searchsorted(keys, targets), keys.size - 1)
    return keys[pos] == targets


def _lines(
    line: np.ndarray, pos: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per grid line of the members: ``line`` holds ascending line ids and
    ``pos`` the distinct positions, ascending within each line.  Returns
    each line's id, first and last position, and whether its members form
    one unbroken run (they do iff the extent equals the count)."""
    first = np.flatnonzero(np.diff(line, prepend=-1))
    last = np.flatnonzero(np.diff(line, append=-1))
    lo, hi = pos[first], pos[last]
    return line[first], lo, hi, hi - lo == last - first


def _closure(
    ids: np.ndarray, xs: np.ndarray, ys: np.ndarray, shape: Tuple[int, int]
) -> _Tagged:
    """The orthoconvex closure of every tagged set at once: column and row
    span fills over all sets' lines, iterated to their common fixpoint.
    Takes and returns members ordered by ``(id, x, y)``."""
    w, h = shape
    while True:
        col, lo, hi, _ = _lines(ids * w + xs, ys)
        col, fy = expand_runs(col, lo, hi)
        fid, fx = np.divmod(col, w)
        order = np.argsort((fid * h + fy) * w + fx)
        row, lo, hi, _ = _lines((fid * h + fy)[order], fx[order])
        row, fx = expand_runs(row, lo, hi)
        if fx.size == xs.size:  # fills only add members: nothing changed
            return ids, xs, ys
        fid, fy = np.divmod(row, h)
        order = np.argsort((fid * w + fx) * h + fy)
        ids, xs, ys = fid[order], fx[order], fy[order]


def check_blocks_rectangular(result: LabelingResult) -> CheckOutcome:
    """Faulty blocks are full rectangles (Section 3)."""
    claim = "faulty blocks are rectangles"
    for b in result.blocks:
        if not is_rectangle(b.cells):
            return _fail(claim, f"block at {b.rect} is not a full rectangle")
    return _ok(claim)


def check_block_separation(result: LabelingResult) -> CheckOutcome:
    """Distance between faulty blocks >= 3 (Def 2a) / >= 2 (Def 2b).

    A sweep on ``x0``: a block can be that close only to the blocks whose
    ``x0`` lies less than ``need`` columns past its ``x1``, so each block
    is tested against the window of blocks after it in ``x0`` order that
    start before ``x1 + need``.  The witness is the violating pair
    ``(i, j)``, ``i < j``, that comes first in block order."""
    need = result.definition.min_block_separation
    claim = f"block separation >= {need}"
    blocks = result.blocks
    n = len(blocks)
    rects = np.array(
        [(b.rect.x0, b.rect.y0, b.rect.x1, b.rect.y1) for b in blocks], dtype=np.int64
    ).reshape(-1, 4)
    order = np.argsort(rects[:, 0], kind="stable")
    rects = rects[order]
    window = np.searchsorted(rects[:, 0], rects[:, 2] + need) - np.arange(1, n + 1)
    first = np.cumsum(window) - window  # first pair slot of every block
    best = None  # (i * n + j, distance)
    start = 0
    while start < n:
        stop = int(np.searchsorted(first, first[start] + _SEPARATION_BAND))
        stop = max(start + 1, stop)
        at = np.arange(start, stop)
        a, b = expand_runs(at, at + 1, at + window[start:stop])
        ra, rb = rects[a], rects[b]
        gap = np.maximum(ra[:, :2], rb[:, :2]) - np.minimum(ra[:, 2:], rb[:, 2:])
        dist = np.maximum(gap, 0).sum(axis=1)
        bad = dist < need
        if bad.any():
            i, j = order[a[bad]], order[b[bad]]
            code = np.minimum(i, j) * n + np.maximum(i, j)
            k = int(np.argmin(code))
            best = min(best or (n * n, 0), (int(code[k]), int(dist[bad][k])))
        start = stop
    if best is None:
        return _ok(claim)
    i, j = divmod(best[0], n)
    return _fail(
        claim, f"blocks {blocks[i].rect} and {blocks[j].rect} at distance {best[1]}"
    )


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
    rid, xs, ys = _members(r.cells for r in regions)
    key = xs * h + ys
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
    """Theorem 1: every disabled region is an orthogonal convex polygon.

    One pass over all regions' members: each column and each row of a
    region must hold one unbroken run, and the region must be 8-connected.
    With one run per column, that is: its columns are consecutive, and the
    runs of adjacent columns lie within one row of each other (every path
    between two columns crosses each column in between)."""
    claim = "theorem 1 (regions are orthogonal convex polygons)"
    regions = result.regions
    if not regions:
        return _ok(claim)
    w, h = regions[0].cells.shape
    rid, xs, ys = _members(r.cells for r in regions)
    bad = np.bincount(rid, minlength=len(regions)) == 0  # the empty set is no region
    col, lo, hi, one_run = _lines(rid * w + xs, ys)
    bad[col[~one_run] // w] = True
    order = np.argsort((rid * h + ys) * w + xs)
    row, _, _, one_run = _lines((rid * h + ys)[order], xs[order])
    bad[row[~one_run] // h] = True
    same = col[1:] // w == col[:-1] // w
    apart = (col[1:] != col[:-1] + 1) | (lo[1:] > hi[:-1] + 1) | (lo[:-1] > hi[1:] + 1)
    bad[col[1:][same & apart] // w] = True
    failing = np.flatnonzero(bad)
    if not failing.size:
        return _ok(claim)
    k = int(failing[0])
    return _fail(claim, f"region {k} ({regions[k].cells!r}) is not orthoconvex")


def check_lemma1(result: LabelingResult) -> CheckOutcome:
    """Lemma 1: every corner node of a disabled region is faulty.

    A member is a corner when, along each axis, a neighbour is missing
    from its own region (beyond the grid counts as missing); each
    membership test is one ``searchsorted`` on the region-tagged keys."""
    claim = "lemma 1 (corner nodes are faulty)"
    regions = result.regions
    if not regions:
        return _ok(claim)
    w, h = regions[0].cells.shape
    rid, xs, ys = _members(r.cells for r in regions)
    key = (rid * w + xs) * h + ys
    east = (xs < w - 1) & _isin(key, key + h)
    west = (xs > 0) & _isin(key, key - h)
    north = (ys < h - 1) & _isin(key, key + 1)
    south = (ys > 0) & _isin(key, key - 1)
    fid, fx, fy = _members(r.faults for r in regions)
    corner = ~(east & west) & ~(north & south)
    bad = np.flatnonzero(corner & ~_isin((fid * w + fx) * h + fy, key))
    if not bad.size:
        return _ok(claim)
    k = int(rid[bad[0]])
    first = bad[rid[bad] == k][:3]
    coords = list(zip(xs[first].tolist(), ys[first].tolist()))
    return _fail(claim, f"region {k} has nonfaulty corners at {coords}")


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
    of its fault set, computed for all regions at once."""
    claim = "theorem 2 (region == orthoconvex closure of its faults)"
    regions = result.regions
    if not regions:
        return _ok(claim)
    shape = regions[0].cells.shape
    w, h = shape
    cid, cx, cy = _closure(*_members(r.faults for r in regions), shape)
    rid, xs, ys = _members(r.cells for r in regions)
    closure, cells = (cid * w + cx) * h + cy, (rid * w + xs) * h + ys
    extra = np.bincount(rid[~_isin(closure, cells)], minlength=len(regions))
    missing = np.bincount(cid[~_isin(cells, closure)], minlength=len(regions))
    failing = np.flatnonzero(extra + missing)
    if not failing.size:
        return _ok(claim)
    k = int(failing[0])
    return _fail(
        claim,
        f"region {k}: closure mismatch "
        f"(+{extra[k]} region-only, -{missing[k]} closure-only cells)",
    )


def check_corollary(result: LabelingResult) -> CheckOutcome:
    """Corollary: per faulty block, nonfaulty nodes covered by its regions
    <= nonfaulty nodes in the smallest orthoconvex polygon containing all
    the block's faults.

    One pass counts every block's nonfaulty disabled members.  A block
    counting 0 holds whatever the polygon keeps, so only the others build
    it (closure + minimal staircase joins, which never leave the faults'
    bounding box, so each counts on a window)."""
    claim = "corollary (regions cover <= smallest single-OCP nonfaulty nodes)"
    blocks, labels = result.blocks, result.labels
    faulty = labels.faulty
    bid, xs, ys = _members(b.cells for b in blocks)
    kept = labels.unsafe[xs, ys] & ~labels.enabled[xs, ys] & ~faulty[xs, ys]
    in_regions = np.bincount(bid[kept], minlength=len(blocks))
    for k in np.flatnonzero(in_regions).tolist():
        b = blocks[k]
        if not b.faults:
            continue
        box = _box(b.cells, b.faults)
        single_ocp = connect_orthoconvex(_crop(b.faults, box))
        in_ocp = int((single_ocp.mask & ~faulty[box]).sum())
        if in_regions[k] > in_ocp:
            return _fail(
                claim,
                f"block {b.rect}: regions keep {in_regions[k]} nonfaulty disabled, "
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
