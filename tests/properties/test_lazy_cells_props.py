"""Lazily built cell sets must be indistinguishable from mask-built ones.

The geometry extractors build every block, region and component as a
lazy :class:`CellSet`: a grid shape, a count, a bounding box and either
a slice of shared vertical-run arrays, nothing (the set fills its
bounding box), or a shared bounding-box window.  Each lazy form of a random mask
must agree with ``CellSet(mask)`` on every observable: equality both
ways, hash, size, geometry, the read-only full-grid mask, iteration
order, membership and the set algebra.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import CellSet
from tests.geometry.scan_reference import scan_runs_reference


@st.composite
def masks(draw):
    """A boolean grid of random shape: random fill, empty, one cell, a full
    rectangle, or a random fill touching all four edges."""
    w = draw(st.integers(1, 12))
    h = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["random", "empty", "single", "rect", "edges"]))
    mask = np.zeros((w, h), dtype=bool)
    if kind == "single":
        mask[draw(st.integers(0, w - 1)), draw(st.integers(0, h - 1))] = True
    elif kind == "rect":
        x0, x1 = sorted(draw(st.lists(st.integers(0, w - 1), min_size=2, max_size=2)))
        y0, y1 = sorted(draw(st.lists(st.integers(0, h - 1), min_size=2, max_size=2)))
        mask[x0 : x1 + 1, y0 : y1 + 1] = True
    elif kind in ("random", "edges"):
        bits = draw(st.lists(st.booleans(), min_size=w * h, max_size=w * h))
        mask = np.array(bits, dtype=bool).reshape(w, h)
        if kind == "edges":
            mask[0, draw(st.integers(0, h - 1))] = True
            mask[w - 1, draw(st.integers(0, h - 1))] = True
            mask[draw(st.integers(0, w - 1)), 0] = True
            mask[draw(st.integers(0, w - 1)), h - 1] = True
    return mask


def lazy_forms(mask, pad):
    """Every lazy construction of ``mask``'s cells: a run slice inside
    padded shared arrays, the full-rectangle form when the cells fill
    their bounding box, and a window shared through a crop."""
    shape = mask.shape
    xs, ys = np.nonzero(mask)
    n = int(xs.size)
    bbox = (int(xs.min()), int(ys.min()), int(xs.max()), int(ys.max())) if n else None
    # Foreign runs around the slice: the set must read only lo..hi.
    foreign = np.zeros(pad, np.int64)
    runs = [np.concatenate([foreign, a, foreign]) for a in scan_runs_reference(mask)]
    nruns = runs[0].size - 2 * pad
    sliced = CellSet._lazy(shape, bbox, n, (*runs, pad, pad + nruns))
    forms = [sliced, sliced._crop(0, 0, shape)]
    if n and n == (bbox[2] - bbox[0] + 1) * (bbox[3] - bbox[1] + 1):
        forms.append(CellSet._lazy(shape, bbox, n))
    return forms


def assert_same(lazy, eager):
    w, h = eager.shape
    assert lazy == eager and eager == lazy
    assert not (lazy != eager)
    assert hash(lazy) == hash(eager)
    assert lazy.shape == eager.shape
    assert len(lazy) == len(eager)
    assert bool(lazy) == bool(eager)
    if eager:
        assert lazy.bounding_box() == eager.bounding_box()
    else:
        with pytest.raises(GeometryError):
            lazy.bounding_box()
    assert lazy.diameter() == eager.diameter()
    assert list(lazy) == list(eager)
    probes = [(x, y) for x in range(-1, w + 1) for y in range(-1, h + 1)]
    assert [c in lazy for c in probes] == [c in eager for c in probes]
    assert lazy.mask.shape == eager.mask.shape
    assert np.array_equal(lazy.mask, eager.mask)
    with pytest.raises(ValueError):
        lazy.mask[0, 0] = True


class TestLazyMatchesEager:
    @given(masks(), st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_every_observable(self, mask, pad):
        eager = CellSet(mask)
        for lazy in lazy_forms(mask, pad):
            assert_same(lazy, eager)

    @given(masks(), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_unmaterialised_reads_first(self, mask, pad):
        # Accessors that read only the window must agree before any mask
        # exists, and reading them must not build one.
        eager = CellSet(mask)
        for lazy in lazy_forms(mask, pad):
            assert list(lazy) == list(eager)
            assert lazy == eager and hash(lazy) == hash(eager)
            assert lazy._mask is None

    @given(masks(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_set_algebra(self, mask, data):
        w, h = mask.shape
        bits = data.draw(st.lists(st.booleans(), min_size=w * h, max_size=w * h))
        other_mask = np.array(bits, dtype=bool).reshape(w, h)
        a, b = CellSet(mask), CellSet(other_mask)
        for la in lazy_forms(mask, 1):
            for lb in lazy_forms(other_mask, 2):
                assert la | lb == a | b
                assert la & lb == a & b
                assert la - lb == a - b
                assert lb - la == b - a
                assert la.issubset(lb) == a.issubset(b)
                assert la.isdisjoint(lb) == a.isdisjoint(b)

    @given(masks(), st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=200, deadline=None)
    def test_translated(self, mask, dx, dy):
        eager = CellSet(mask)
        try:
            want = eager.translated(dx, dy)
        except GeometryError:
            for lazy in lazy_forms(mask, 0):
                with pytest.raises(GeometryError):
                    lazy.translated(dx, dy)
            return
        for lazy in lazy_forms(mask, 0):
            assert_same(lazy.translated(dx, dy), want)
