"""The theorem checkers against a slow oracle.

:func:`repro.core.theorems.check_all` checks all regions (or blocks) at
once, in a few passes over their member cells tagged with the region or
block id.  The oracle below is the plain pairwise, full-grid formulation
of the same claims; every outcome — claim, verdict and witness text —
must match it on real pipeline results and on results corrupted in ways
that break each claim.
"""

import dataclasses
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.theorems import CheckOutcome, check_all
from repro.geometry import CellSet, connect_orthoconvex, is_orthoconvex, orthoconvex_closure
from repro.geometry.boundary import corner_cells
from repro.geometry.components import set_distance
from repro.geometry.quadrants import quadrant_extreme_corner, quadrants_with_members
from repro.geometry.rectangles import Rect, is_rectangle
from repro.mesh.coords import Quadrant
from tests.strategies import labeling_results


def _first(claim, details):
    detail = next(iter(details), None)
    return CheckOutcome(claim, detail is None, detail or "")


def _lemma2(r):
    corners = corner_cells(r.cells)
    for u in r.cells:
        for q in Quadrant:
            w = quadrant_extreme_corner(r.cells, u, q)
            if w is None:
                yield f"quadrant {q} around {u} holds no region node"
            elif w not in corners:
                yield f"extreme {w} of quadrant {q} around {u} is not a corner"


def _lemma3(r, samples=64):
    (x0, y0, x1, y1), (w, h) = r.cells.bounding_box(), r.cells.shape
    outside = [(x, y) for x in range(max(0, x0 - 1), min(w, x1 + 2))
               for y in range(max(0, y0 - 1), min(h, y1 + 2)) if not r.cells.mask[x, y]]
    for x, y in outside[:samples]:
        if all(quadrants_with_members(r.cells, (x, y)).values()):
            yield f"outside node ({x},{y}) sees all 4 quadrants"


def oracle(result, quadrant_lemmas):
    blocks, regions, need = result.blocks, result.regions, result.definition.min_block_separation
    nonfaulty, disabled = ~result.labels.faulty, result.labels.disabled
    out = [
        _first("faulty blocks are rectangles", (
            f"block at {b.rect} is not a full rectangle"
            for b in blocks if not is_rectangle(b.cells))),
        _first(f"block separation >= {need}", (
            f"blocks {a.rect} and {b.rect} at distance {a.rect.distance(b.rect)}"
            for a, b in combinations(blocks, 2) if a.rect.distance(b.rect) < need)),
        _first("region separation >= 2", (
            f"regions {i} and {j} at distance {set_distance(regions[i].cells, regions[j].cells)}"
            for i, j in combinations(range(len(regions)), 2)
            if set_distance(regions[i].cells, regions[j].cells) < 2)),
        _first("theorem 1 (regions are orthogonal convex polygons)", (
            f"region {k} ({r.cells!r}) is not orthoconvex"
            for k, r in enumerate(regions) if not is_orthoconvex(r.cells))),
        _first("lemma 1 (corner nodes are faulty)", (
            f"region {k} has nonfaulty corners at {(corner_cells(r.cells) - r.faults).coords()[:3]}"
            for k, r in enumerate(regions) if not corner_cells(r.cells) <= r.faults)),
        _first("theorem 2 (region == orthoconvex closure of its faults)", (
            f"region {k}: closure mismatch (+{len(r.cells - c)} region-only, "
            f"-{len(c - r.cells)} closure-only cells)"
            for k, r in enumerate(regions)
            for c in [orthoconvex_closure(r.faults)] if c != r.cells)),
        _first("corollary (regions cover <= smallest single-OCP nonfaulty nodes)", (
            f"block {b.rect}: regions keep {kept} nonfaulty disabled, single OCP would keep {ocp}"
            for b in blocks if b.faults
            for kept in [int((b.cells.mask & disabled & nonfaulty).sum())]
            for ocp in [int((connect_orthoconvex(b.faults).mask & nonfaulty).sum())]
            if kept > ocp)),
    ]
    for r in regions if quadrant_lemmas else ():
        out.append(_first("lemma 2 (every quadrant holds a corner node)", _lemma2(r)))
        out.append(_first("lemma 3 (outside nodes have an empty quadrant)", _lemma3(r)))
    return out


def _edit_cells(cells, coord, value):
    mask = cells.mask.copy()
    mask[coord] = value
    return CellSet(mask)


@st.composite
def tampered(draw):
    """A pipeline result with one to three hand-made corruptions."""
    result = draw(labeling_results())
    w, h = result.labels.shape
    for _ in range(draw(st.integers(1, 3))):
        regions, blocks = list(result.regions), list(result.blocks)
        kind = draw(st.sampled_from(["add", "drop", "copy", "collide", "faults",
                                     "block_cell", "block_rect", "drop_block", "disable"]))
        cell = (draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1)))
        if kind == "disable":
            # A nonfaulty node turned disabled: inflates the corollary count.
            if result.labels.faulty[cell]:
                continue
            unsafe, enabled = result.labels.unsafe.copy(), result.labels.enabled.copy()
            unsafe[cell], enabled[cell] = True, False
            labels = dataclasses.replace(result.labels, unsafe=unsafe, enabled=enabled)
            result = dataclasses.replace(result, labels=labels)
            continue
        if "block" in kind:
            if not blocks:
                continue
            k = draw(st.integers(0, len(blocks) - 1))
            b = blocks[k]
            if kind == "drop_block":
                # Its disabled cells now belong to no block.
                del blocks[k]
            elif kind == "block_cell":
                flipped = _edit_cells(b.cells, cell, not b.cells.mask[cell])
                blocks[k] = dataclasses.replace(b, cells=flipped)
            else:
                dx, dy = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
                blocks[k] = dataclasses.replace(b, rect=Rect(b.rect.x0 + dx, b.rect.y0 + dy,
                                                             b.rect.x1 + dx, b.rect.y1 + dy))
            result = dataclasses.replace(result, blocks=blocks)
            continue
        if not regions:
            continue
        k = draw(st.integers(0, len(regions) - 1))
        r = regions[k]
        if kind == "add":
            regions[k] = dataclasses.replace(r, cells=_edit_cells(r.cells, cell, True))
        elif kind == "drop" and len(r.cells) > 1:
            regions[k] = dataclasses.replace(
                r, cells=_edit_cells(r.cells, draw(st.sampled_from(r.cells.coords())), False))
        elif kind == "copy":
            # A shifted duplicate overlaps or touches the original.
            dx, dy = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            x0, y0, x1, y1 = (r.cells | r.faults).bounding_box()
            if 0 <= x0 + dx and x1 + dx < w and 0 <= y0 + dy and y1 + dy < h:
                regions.insert(draw(st.integers(0, len(regions))), dataclasses.replace(
                    r, cells=r.cells.translated(dx, dy), faults=r.faults.translated(dx, dy)))
        elif kind == "collide" and len(regions) > 1:
            # Moved onto a row or column line of another region, so both
            # regions hold members of one grid line.
            j = draw(st.sampled_from([i for i in range(len(regions)) if i != k]))
            xk, yk = draw(st.sampled_from(r.cells.coords()))
            xj, yj = draw(st.sampled_from(regions[j].cells.coords()))
            dx, dy = (xj - xk, 0) if draw(st.booleans()) else (0, yj - yk)
            x0, y0, x1, y1 = (r.cells | r.faults).bounding_box()
            if 0 <= x0 + dx and x1 + dx < w and 0 <= y0 + dy and y1 + dy < h:
                regions[k] = dataclasses.replace(
                    r, cells=r.cells.translated(dx, dy), faults=r.faults.translated(dx, dy))
        elif kind == "faults":
            # Faults moved off the region (or onto all of it).
            regions[k] = dataclasses.replace(
                r, faults=r.cells if draw(st.booleans()) else _edit_cells(r.faults, cell, True))
        result = dataclasses.replace(result, regions=regions)
    return result


class TestCheckAllMatchesOracle:
    @given(labeling_results(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_pipeline_results(self, result, quadrant_lemmas):
        assert check_all(result, quadrant_lemmas) == oracle(result, quadrant_lemmas)

    @given(tampered(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_tampered_results(self, result, quadrant_lemmas):
        assert check_all(result, quadrant_lemmas) == oracle(result, quadrant_lemmas)
