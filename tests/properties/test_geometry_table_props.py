"""The columnar geometry table against the objects it stands for.

Extraction fills each result's block and region table straight from its
run arrays (:class:`repro.geometry.components.CellTable`); the table a
hand-built result gets is made from the objects (``Geometry.of``).  The
second is the oracle for the first: on real results, the table
extraction emits must equal the one made from the BFS reference
extractors' objects, array for array.  The table-backed sequences must
equal those reference lists in both directions of ``==``, build no
object for ``len``, and survive pickling.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SafetyDefinition, label_mesh
from repro.core.blocks import Blocks, extract_blocks_reference
from repro.core.regions import Regions, extract_regions_reference
from repro.faults.generators import uniform_random
from repro.geometry.components import CellTable
from repro.geometry.rectangles import Rect
from repro.mesh import Mesh2D, Torus2D
from tests.strategies import labeling_results


def _same_table(got: CellTable, want: CellTable):
    assert got.shape == want.shape
    assert np.array_equal(got.stats, want.stats)
    assert all(map(np.array_equal, got.runs, want.runs))
    assert all(map(np.array_equal, got.members, want.members))


def _references(result):
    labels = result.labels
    blocks = extract_blocks_reference(labels.unsafe, labels.faulty)
    regions = extract_regions_reference(labels.disabled, labels.faulty)
    return blocks, regions


def _check_against_reference(result):
    blocks, regions = _references(result)
    shape = result.labels.shape
    for got, want in ((result.blocks, Blocks.of(shape, blocks)),
                      (result.regions, Regions.of(shape, regions))):
        _same_table(got.cells, want.cells)
        _same_table(got.faults, want.faults)
    assert np.array_equal(result.blocks.rects, Blocks.of(shape, blocks).rects)
    assert result.regions.rects is None
    # Both directions of ==, and the objects one by one.
    assert result.blocks == blocks and blocks == result.blocks
    assert result.regions == regions and regions == result.regions
    assert list(result.blocks) == blocks and list(result.regions) == regions


class TestTableMatchesReferenceObjects:
    @given(labeling_results())
    @settings(max_examples=80, deadline=None)
    def test_labeling_results(self, result):
        _check_against_reference(result)

    @pytest.mark.parametrize("topo_cls", [Mesh2D, Torus2D])
    @pytest.mark.parametrize("definition", list(SafetyDefinition))
    def test_many_blocks(self, topo_cls, definition):
        # Hundreds of blocks and regions; heights across a word boundary.
        topo = topo_cls(90, 70)
        faults = uniform_random(topo.shape, 120, np.random.default_rng(5))
        result = label_mesh(topo, faults, definition)
        assert len(result.blocks) > 100
        _check_against_reference(result)


class TestTableOfObjects:
    @given(labeling_results(), st.integers(-2, 2), st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_records_what_the_checkers_read(self, result, shift, grow):
        # Each block's rect moved and grown off its cells: the table keeps
        # the cells' size and box (rectangularity) apart from the rect
        # (separation and the witness texts).
        blocks = [
            dataclasses.replace(b, rect=Rect(b.rect.x0 + shift, b.rect.y0,
                                             b.rect.x1 + shift + grow, b.rect.y1 + grow))
            for b in result.blocks
        ]
        table = Blocks.of(result.labels.shape, blocks)
        for k, b in enumerate(blocks):
            assert table.cells.stats[:, k].tolist() == [*b.cells.bounding_box(), len(b.cells)]
            assert table.faults.stats[4, k] == len(b.faults)
            assert table.rects[:, k].tolist() == [b.rect.x0, b.rect.y0, b.rect.x1, b.rect.y1]


class TestSequences:
    @given(labeling_results())
    @settings(max_examples=40, deadline=None)
    def test_len_builds_no_object(self, result):
        def refuse(self, k):
            raise AssertionError("len built an object")

        for seq in (result.blocks, result.regions):
            original = type(seq)._build
            type(seq)._build = refuse
            try:
                assert len(seq) == len(seq.cells) == len(seq.faults)
            finally:
                type(seq)._build = original
        assert result.summary()["num_blocks"] == len(result.blocks)

    @given(labeling_results())
    @settings(max_examples=40, deadline=None)
    def test_indexing_caches_and_pickles(self, result):
        blocks, regions = _references(result)
        for seq, want in ((result.blocks, blocks), (result.regions, regions)):
            if len(seq):
                assert seq[-1] is seq[len(seq) - 1] == want[-1]
                assert seq[1:] == want[1:]
            back = pickle.loads(pickle.dumps(seq))
            assert type(back) is type(seq) and back == want
        back = pickle.loads(pickle.dumps(result))
        assert back.blocks == blocks and back.regions == regions

    def test_plain_lists_become_tables(self):
        topo = Mesh2D(12, 12)
        faults = uniform_random(topo.shape, 10, np.random.default_rng(1))
        result = label_mesh(topo, faults)
        blocks, regions = _references(result)
        rebuilt = dataclasses.replace(result, blocks=blocks, regions=regions)
        assert isinstance(rebuilt.blocks, Blocks) and isinstance(rebuilt.regions, Regions)
        # A sequence made from objects hands those objects back.
        assert all(a is b for a, b in zip(rebuilt.blocks, blocks))
        assert rebuilt == result
