"""Vectorized geometry must agree bit-for-bit with the reference oracles.

Production geometry is vectorized (union-find labeling, searchsorted
fault mapping, run-length contiguity).  The original per-cell BFS and
per-component code survives as plain functions —
``connected_components_reference``, ``extract_blocks_reference`` and
``extract_regions_reference`` — called here by name.  These properties
pin the fast path to them: component decomposition (both
connectivities), connectedness, block and region extraction on the
planes of full pipeline runs on mesh and torus under both safety
definitions and both fault generators, and the orthoconvexity
predicates.  The labeler joins vertical runs, so one suite draws masks
up to 40x40 at any density — long runs, full columns, several runs per
column — and hand-made masks pin the column seam and one-cell diagonal
overlaps.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import extract_blocks, extract_blocks_reference
from repro.core.pipeline import label_mesh
from repro.core.regions import extract_regions_reference
from repro.core.status import SafetyDefinition
from repro.errors import GeometryError
from repro.faults.generators import clustered, uniform_random
from repro.geometry import (
    CellSet,
    connected_components,
    is_connected,
    is_orthoconvex,
    label_components,
    row_runs,
    column_runs,
)
from repro.geometry.components import (
    _run_edges,
    connected_components_reference,
)
from repro.mesh import Mesh2D, Torus2D
from tests.geometry.scan_reference import scan_runs_reference

GRID = (10, 10)


@st.composite
def cell_sets(draw, min_cells=0, max_cells=18):
    n = draw(st.integers(min_cells, max_cells))
    coords = draw(
        st.lists(
            st.tuples(st.integers(0, GRID[0] - 1), st.integers(0, GRID[1] - 1)),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    return CellSet.from_coords(GRID, coords)


@st.composite
def dense_masks(draw, max_side=40):
    """Masks of up to ``max_side`` squared cells at a drawn density, so
    long runs, full columns and many runs per column all occur."""
    # sampled_from draws sides uniformly; st.integers would favour tiny
    # grids.
    w = draw(st.sampled_from(range(1, max_side + 1)))
    h = draw(st.sampled_from(range(1, max_side + 1)))
    density = draw(st.floats(0, 1))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).random((w, h)) < density


def _mask(shape, coords):
    m = np.zeros(shape, dtype=bool)
    for c in coords:
        m[c] = True
    return m


#: Hand-made masks for the run-join edge cases.
EDGE_MASKS = {
    "full-columns": np.ones((6, 5), dtype=bool),
    "alternate-full-columns": np.tile([[True], [False]], (4, 5)),
    # (0, 4) and (1, 0) are adjacent in the linear index but not on the
    # grid: the column seam must not join them at either connectivity.
    "column-seam": _mask((3, 5), [(0, 3), (0, 4), (1, 0), (1, 1), (2, 4)]),
    "runs-at-both-borders": _mask(
        (4, 6), [(0, 0), (0, 1), (0, 5), (1, 4), (1, 5), (2, 0), (3, 1), (3, 5)]
    ),
    # Runs in neighbouring columns that overlap by exactly one diagonal
    # cell, above and below.
    "one-diagonal-overlap": _mask(
        (4, 8), [(0, 0), (0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6), (3, 4)]
    ),
    "checkerboard": np.indices((7, 6)).sum(axis=0) % 2 == 0,
}


def _touching_runs(mask, conn):
    """The run-join oracle: every pair of vertical runs in neighbouring
    columns that some pair of member cells joins, by brute force."""
    x, y0, y1 = runs = scan_runs_reference(mask)
    d = 0 if conn == 4 else 1
    pairs = set()
    for a in range(x.size):
        for b in range(a):
            if x[b] == x[a] - 1 and y0[b] <= y1[a] + d and y0[a] - d <= y1[b]:
                pairs.add((a, b))
    return runs, pairs


def _check_against_oracle(mask, conn):
    s = CellSet(mask)
    oracle = connected_components_reference(s, connectivity=conn)
    assert connected_components(s, connectivity=conn) == oracle
    labels, count = label_components(mask, connectivity=conn)
    expected = np.full(mask.shape, -1, dtype=np.int32)
    for k, comp in enumerate(oracle):
        expected[comp.mask] = k
    assert count == len(oracle)
    assert np.array_equal(labels, expected)
    runs, pairs = _touching_runs(mask, conn)
    a, b = _run_edges(*runs, mask.shape[1], conn)
    assert set(zip(a.tolist(), b.tolist())) == pairs
    assert a.size == len(pairs)  # each pair once
    # Touching runs of two columns form a monotone staircase, so the
    # edges number fewer than the runs: O(runs), never O(cells).
    assert a.size <= max(2 * runs[0].size - 1, 0)


class TestRunJoin:
    """The run-granularity join on masks with long runs and several runs
    per column, against the BFS oracle and a brute-force run pairing."""

    @settings(max_examples=150, deadline=None)
    @given(dense_masks(), st.sampled_from([4, 8]))
    def test_dense_masks_match_oracle(self, mask, conn):
        _check_against_oracle(mask, conn)

    @pytest.mark.parametrize("conn", [4, 8])
    @pytest.mark.parametrize("name", sorted(EDGE_MASKS))
    def test_edge_masks_match_oracle(self, name, conn):
        _check_against_oracle(EDGE_MASKS[name], conn)

    def test_column_seam_never_joins(self):
        for conn in (4, 8):
            _, count = label_components(EDGE_MASKS["column-seam"], conn)
            assert count == 3

    @pytest.mark.parametrize("conn", [4, 8])
    def test_full_block_joins_one_edge_per_column(self, conn):
        mask = np.ones((1000, 1000), dtype=bool)
        runs = scan_runs_reference(mask)
        a, _ = _run_edges(*runs, 1000, conn)
        assert runs[0].size == 1000 and a.size == 999

    def test_steps_of_full_runs_are_not_a_block(self):
        # Each column is one full run, so every run is a rectangle, but
        # the runs have different heights: run-level sizes and boxes
        # must still see a non-rectangular component.
        unsafe = np.zeros((4, 6), dtype=bool)
        unsafe[0, 0:6] = True
        unsafe[1, 0:4] = True
        unsafe[2, 0:6] = True
        faulty = np.zeros_like(unsafe)
        faulty[0, 0] = True
        with pytest.raises(GeometryError, match="not a rectangle"):
            extract_blocks(unsafe, faulty)
        with pytest.raises(GeometryError, match="not a rectangle"):
            extract_blocks_reference(unsafe, faulty)


class TestComponentBackendAgreement:
    @given(cell_sets(), st.sampled_from([4, 8]))
    def test_connected_components_match(self, s, conn):
        fast = connected_components(s, connectivity=conn)
        slow = connected_components_reference(s, connectivity=conn)
        assert fast == slow  # same components, same order

    @given(cell_sets(), st.sampled_from([4, 8]))
    def test_is_connected_matches(self, s, conn):
        oracle = len(connected_components_reference(s, conn)) == 1
        assert is_connected(s, conn) == oracle

    @given(cell_sets(), st.sampled_from([4, 8]))
    def test_label_grid_matches_reference_order(self, s, conn):
        # label_components numbers components by smallest row-major
        # member — exactly the order the BFS oracle discovers them in.
        labels, count = label_components(s.mask, connectivity=conn)
        oracle = connected_components_reference(s, connectivity=conn)
        assert count == len(oracle)
        expected = np.full(GRID, -1, dtype=np.int32)
        for k, comp in enumerate(oracle):
            expected[comp.mask] = k
        assert np.array_equal(labels, expected)

    @given(cell_sets())
    def test_partition_invariants(self, s):
        comps = connected_components(s, connectivity=4)
        union = np.zeros(GRID, dtype=bool)
        total = 0
        for c in comps:
            assert not np.any(union & c.mask)  # disjoint
            union |= c.mask
            total += len(c)
        assert np.array_equal(union, s.mask)
        assert total == len(s)


def _make_faults(topo, generator, count, seed):
    rng = np.random.default_rng(seed)
    if generator == "uniform":
        return uniform_random(topo.shape, count, rng)
    return clustered(topo.shape, count, rng, clusters=2)


@pytest.mark.parametrize("topo_cls", [Mesh2D, Torus2D])
@pytest.mark.parametrize(
    "definition", [SafetyDefinition.DEF_2A, SafetyDefinition.DEF_2B]
)
@pytest.mark.parametrize("generator", ["uniform", "clustered"])
class TestPipelineBackendAgreement:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), count=st.integers(0, 20))
    def test_label_mesh_cross_backend(self, topo_cls, definition, generator,
                                      seed, count):
        topo = topo_cls(12, 12)
        faults = _make_faults(topo, generator, count, seed)
        try:
            result = label_mesh(topo, faults, definition=definition)
        except ValueError:
            # Dense torus workloads can make the unsafe set wrap every
            # column/row, which the unwrap step rejects before geometry
            # runs (tests/analysis/test_fig5.py pins that rejection).
            return
        # The oracles run on the pipeline's own (torus: unwrapped) planes.
        labels = result.labels
        assert result.blocks == extract_blocks_reference(labels.unsafe, labels.faulty)
        assert result.regions == extract_regions_reference(
            labels.disabled, labels.faulty
        )


class TestOrthoconvexityBackendAgreement:
    @given(cell_sets())
    def test_is_orthoconvex_matches(self, s):
        # Span contiguity plus 8-connectivity by the BFS oracle.
        oracle = is_orthoconvex(s, require_connected=False) and (
            len(connected_components_reference(s, connectivity=8)) == 1
        )
        assert is_orthoconvex(s) == oracle

    @given(cell_sets())
    def test_row_runs_match_per_line_oracle(self, s):
        self._check_runs(s, row_runs, line_axis=1)

    @given(cell_sets())
    def test_column_runs_match_per_line_oracle(self, s):
        self._check_runs(s, column_runs, line_axis=0)

    @staticmethod
    def _check_runs(s, runs_fn, line_axis):
        # Naive oracle: walk each grid line with plain Python.
        mask = s.mask if line_axis == 1 else s.mask.T
        expected = []
        contiguous = True
        for line in range(mask.shape[1]):
            members = [i for i in range(mask.shape[0]) if mask[i, line]]
            if not members:
                continue
            lo, hi = members[0], members[-1]
            if len(members) != hi - lo + 1:
                contiguous = False
                break
            expected.append((line, lo, hi))
        if contiguous:
            assert runs_fn(s) == expected
        else:
            with pytest.raises(GeometryError):
                runs_fn(s)
