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
predicates.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.blocks import extract_blocks_reference
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
from repro.geometry.components import connected_components_reference
from repro.mesh import Mesh2D, Torus2D

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
            # runs (test_frontier_props pins that rejection).
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
