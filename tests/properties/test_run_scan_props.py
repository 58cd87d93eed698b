"""Run-native extraction against its oracles.

Extraction cuts masks into vertical runs on their 64-cell words
(:func:`repro.geometry._bitplanes.scan_runs`) and keeps those runs as
the lazy cell sets' storage.  These properties hold it to the member
scan cut of ``tests/geometry/scan_reference.py``: heights around the
word size (1, 63, 64, 65, 127, 128, 129 and 1000), runs crossing a word
boundary, full and empty columns, and stacks of planes with their
ghost-column gap.  They also pin the block-separation sweep to the
all-pairs banded loop, and extraction's corrupt-label errors to the BFS
reference extractors' text.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import theorems
from repro.core.blocks import Blocks, FaultyBlock, extract_blocks, extract_blocks_reference
from repro.core.pipeline import label_mesh
from repro.core.regions import extract_regions, extract_regions_reference
from repro.core.status import SafetyDefinition
from repro.errors import GeometryError
from repro.faults.generators import uniform_random
from repro.geometry import CellSet, connected_components
from repro.geometry._bitplanes import expand_runs, scan_runs
from repro.geometry.components import (
    CellTable,
    _label_runs,
    _scan,
    connected_components_reference,
)
from repro.geometry.rectangles import Rect
from repro.mesh import Mesh2D, Torus2D
from tests.core.separation_reference import check_block_separation_reference
from tests.geometry.scan_reference import scan_runs_reference

HEIGHTS = (1, 63, 64, 65, 127, 128, 129, 1000)


@st.composite
def word_masks(draw, planes=None, h=None):
    """A mask (or a stack of ``planes`` masks) whose height ``h`` sits
    around the word size, mixing random columns with full, empty and
    word-crossing ones."""
    if h is None:
        h = draw(st.sampled_from(HEIGHTS))
    w = draw(st.integers(1, 4 if h == 1000 else 12))
    shape = (w, h) if planes is None else (planes, w, h)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random(shape) < draw(st.floats(0, 1))
    cols = mask.reshape(-1, h)
    for col in cols:
        kind = draw(st.sampled_from(["keep", "full", "empty", "cross"]))
        if kind == "full":
            col[:] = True
        elif kind == "empty":
            col[:] = False
        elif kind == "cross" and h > 64:
            # A run over the boundary between two words, with its
            # neighbours cleared so that it is maximal.
            lo = draw(st.integers(0, 63))
            hi = draw(st.integers(64, h - 1))
            col[lo : hi + 1] = True
            if lo:
                col[lo - 1] = False
            if hi + 1 < h:
                col[hi + 1] = False
    return mask


def _same(got, want):
    assert len(got) == len(want) == 3
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


class TestWordScan:
    @settings(max_examples=300, deadline=None)
    @given(word_masks())
    def test_matches_member_scan(self, mask):
        runs = scan_runs(mask)
        _same(runs, scan_runs_reference(mask))
        xs, ys = expand_runs(*runs)
        want_x, want_y = np.nonzero(mask)
        assert np.array_equal(xs, want_x) and np.array_equal(ys, want_y)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 4).flatmap(lambda t: word_masks(planes=t)), st.sampled_from([4, 8])
    )
    def test_stack_keeps_planes_apart(self, stack, conn):
        planes, w, h = stack.shape
        runs = scan_runs(stack)
        _same(runs, scan_runs_reference(stack))
        col = runs[0]
        assert ((col % (w + 2)) < w).all()  # two ghost columns per plane
        # Labeling the stack numbers each plane's components as labeling
        # that plane alone does, plane after plane.
        labeled = _label_runs(_scan(stack), h, conn)
        first = 0
        for t in range(planes):
            alone = _label_runs(_scan(stack[t]), h, conn)
            here = col // (w + 2) == t
            assert np.array_equal(labeled.comp[here] - first, alone.comp)
            first += alone.count
        assert labeled.count == first

    @pytest.mark.parametrize("h", HEIGHTS)
    def test_full_and_empty_columns(self, h):
        mask = np.zeros((4, h), dtype=bool)
        mask[1] = mask[3] = True
        _same(scan_runs(mask), ([1, 3], [0, 0], [h - 1, h - 1]))
        empty = np.zeros((3, h), dtype=bool)
        _same(scan_runs(empty), scan_runs_reference(empty))


def _run_slice_form(mask, pad):
    """``mask``'s cells as a lazy set over a run slice of padded arrays."""
    xs, ys = np.nonzero(mask)
    n = int(xs.size)
    bbox = (int(xs.min()), int(ys.min()), int(xs.max()), int(ys.max())) if n else None
    foreign = np.full(pad, 7, dtype=np.int64)
    runs = [np.concatenate([foreign, a, foreign]) for a in scan_runs_reference(mask)]
    return CellSet._lazy(mask.shape, bbox, n, (*runs, pad, runs[0].size - pad))


class TestRunSliceSets:
    @settings(max_examples=200, deadline=None)
    @given(word_masks(), st.integers(0, 3), st.data())
    def test_equal_to_mask_built(self, mask, pad, data):
        lazy, eager = _run_slice_form(mask, pad), CellSet(mask)
        assert lazy == eager and eager == lazy and hash(lazy) == hash(eager)
        assert list(lazy) == list(eager)
        for got, want in zip(lazy._coords(), eager._coords()):
            assert np.array_equal(got, want)
        _same(lazy._run_arrays(), eager._run_arrays())
        assert np.array_equal(lazy.mask, eager.mask)
        w, h = mask.shape
        x0, y0 = data.draw(st.integers(0, w - 1)), data.draw(st.integers(0, h - 1))
        shape = (data.draw(st.integers(1, w - x0)), data.draw(st.integers(1, h - y0)))
        assert lazy._crop(x0, y0, shape) == eager._crop(x0, y0, shape)
        assert _run_slice_form(mask, pad)._crop(0, 0, (w, h)) == eager

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(HEIGHTS).flatmap(
            lambda h: st.lists(word_masks(h=h), min_size=1, max_size=4)
        ),
        st.data(),
    )
    def test_table_of_groups_every_form(self, masks, data):
        # Mask-built, run-slice, box-filling and cropped sets, in any
        # order, make a table holding each set's runs, size and box.
        sets = []
        for m in masks:
            form = data.draw(st.sampled_from(["mask", "runs", "box", "crop"]))
            if form == "runs":
                sets.append(_run_slice_form(m, 1))
            elif form == "box" and m.any():
                xs, ys = np.nonzero(m)
                box = (int(xs.min()), int(ys.min()), int(xs.max()), int(ys.max()))
                count = (box[2] - box[0] + 1) * (box[3] - box[1] + 1)
                sets.append(CellSet._lazy(m.shape, box, count))
            elif form == "crop":
                sets.append(CellSet(m)._crop(0, 0, m.shape))
            else:
                sets.append(CellSet(m))
        table = CellTable.of(masks[0].shape, sets)
        x, y0, y1, ptr = table.runs
        for k, s in enumerate(sets):
            at = slice(ptr[k], ptr[k + 1])
            _same((x[at], y0[at], y1[at]), scan_runs_reference(s.mask))
            assert table.stats[4, k] == s.mask.sum()
            if s:
                assert tuple(table.stats[:4, k]) == s.bounding_box()


def _make_result(topo_cls, w, h, definition, seed, count):
    topo = topo_cls(w, h)
    faults = uniform_random(topo.shape, min(count, w * h), np.random.default_rng(seed))
    try:
        return label_mesh(topo, faults, definition=definition)
    except ValueError:
        return None  # a torus whose unsafe nodes wrap every column or row


@pytest.mark.parametrize("topo_cls", [Mesh2D, Torus2D])
@pytest.mark.parametrize("definition", list(SafetyDefinition))
class TestExtractionAcrossWords:
    @settings(max_examples=15, deadline=None)
    @given(
        w=st.integers(3, 16),
        h=st.sampled_from([63, 64, 65, 129]),
        seed=st.integers(0, 2**31 - 1),
        count=st.integers(0, 120),
    )
    def test_matches_reference_extractors(self, topo_cls, definition, w, h, seed, count):
        result = _make_result(topo_cls, w, h, definition, seed, count)
        if result is None:
            return
        labels = result.labels
        assert result.blocks == extract_blocks_reference(labels.unsafe, labels.faulty)
        assert result.regions == extract_regions_reference(labels.disabled, labels.faulty)
        for conn, parts in ((4, result.blocks), (8, result.regions)):
            union = CellSet(labels.unsafe if conn == 4 else labels.disabled)
            got = connected_components(union, conn)
            assert got == [p.cells for p in parts]
            assert got == connected_components_reference(union, conn)


def _error(fn, *args):
    with pytest.raises(GeometryError) as info:
        fn(*args)
    return str(info.value)


class TestCorruptLabels:
    """The three corrupt-label errors name the same culprit as the
    reference extractors."""

    @settings(max_examples=100, deadline=None)
    @given(word_masks(), st.integers(0, 2**32 - 1))
    def test_same_error_text(self, mask, seed):
        rng = np.random.default_rng(seed)
        faulty = mask & (rng.random(mask.shape) < 0.3)
        if rng.random() < 0.3 and (~mask).any():  # a fault outside the mask
            faulty.reshape(-1)[np.flatnonzero(~mask)[0]] = True
        for fast, slow in ((extract_blocks, extract_blocks_reference),
                           (extract_regions, extract_regions_reference)):
            try:
                want = slow(mask, faulty)
            except GeometryError as exc:
                assert _error(fast, mask, faulty) == str(exc)
            else:
                assert fast(mask, faulty) == want

    def test_each_error(self):
        unsafe = np.zeros((6, 70), dtype=bool)
        unsafe[0, 60:68] = unsafe[1, 60:64] = True  # an L over a word boundary
        faulty = np.zeros_like(unsafe)
        faulty[0, 60] = True
        text = _error(extract_blocks, unsafe, faulty)
        assert text == _error(extract_blocks_reference, unsafe, faulty)
        assert "count=12) is not a rectangle" in text
        disabled = unsafe.copy()
        disabled[4, 5] = True
        text = _error(extract_regions, disabled, faulty)
        assert text == _error(extract_regions_reference, disabled, faulty)
        assert "count=1) contains no fault" in text
        faulty[5, 69] = True
        assert _error(extract_blocks, unsafe, faulty) == (
            "a faulty node is missing from the unsafe mask"
        )
        assert _error(extract_regions, disabled, faulty) == (
            "a faulty node is missing from the disabled mask"
        )


@st.composite
def block_layouts(draw):
    """Random rectangles, overlapping or not, some wide: the sweep's
    windows hold many blocks when boxes are wide or crowded."""
    n = draw(st.integers(0, 30))
    shape = (43, 34)
    blocks = []
    for _ in range(n):
        x0, y0 = draw(st.integers(0, 30)), draw(st.integers(0, 30))
        x1, y1 = x0 + draw(st.integers(0, 12)), y0 + draw(st.integers(0, 3))
        rect = Rect(x0, y0, x1, y1)
        cells = CellSet._lazy(shape, (x0, y0, x1, y1), rect.area)
        blocks.append(FaultyBlock(cells=cells, rect=rect, faults=CellSet.empty(shape)))
    definition = draw(st.sampled_from(list(SafetyDefinition)))
    return SimpleNamespace(definition=definition, blocks=Blocks.of(shape, blocks))


class TestBlockSeparationSweep:
    @settings(max_examples=300, deadline=None)
    @given(block_layouts(), st.sampled_from([1, 3, 1 << 20]))
    def test_matches_banded_oracle(self, result, band):
        old = theorems._SEPARATION_BAND
        theorems._SEPARATION_BAND = band  # small bands split the sweep
        try:
            got = theorems.check_block_separation(result)
        finally:
            theorems._SEPARATION_BAND = old
        assert got == check_block_separation_reference(result)
