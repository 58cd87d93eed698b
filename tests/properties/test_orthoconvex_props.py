"""Deeper structural properties of orthogonal convex regions.

Two consequences of Theorem 1 that the routing story relies on, checked
on pipeline-produced disabled regions over random fault patterns:

* **staircase connectivity** — any two cells of a connected orthoconvex
  region are joined by a monotone path inside it (no backtracking:
  the geometric basis for progressive routing);
* **tight perimeter** — an orthoconvex region's boundary length is
  exactly ``2 * (bbox_width + bbox_height)``: every grid line crosses
  the boundary at most twice, so rim detours are as short as a
  rectangle's of the same extent.
"""

from hypothesis import given, settings

from repro.core import label_mesh
from repro.geometry import perimeter
from repro.geometry.paths import is_monotone_path, monotone_path_within
from repro.mesh import Mesh2D
from tests.strategies import fault_sets

W = H = 11


class TestRegionStructure:
    @given(fault_sets(W, H, 12, min_faults=1))
    @settings(max_examples=40, deadline=None)
    def test_staircase_connectivity_of_regions(self, faults):
        result = label_mesh(Mesh2D(W, H), faults)
        for region in result.regions:
            cells = region.cells.coords()
            # All pairs for small regions; corner-to-corner for larger.
            pairs = (
                [(u, v) for u in cells for v in cells]
                if len(cells) <= 8
                else [(cells[0], cells[-1]), (cells[-1], cells[0])]
            )
            for u, v in pairs:
                path = monotone_path_within(region.cells, u, v)
                assert path is not None, (u, v, cells)
                assert is_monotone_path(path)

    @given(fault_sets(W, H, 12, min_faults=1))
    @settings(max_examples=40, deadline=None)
    def test_perimeter_identity(self, faults):
        result = label_mesh(Mesh2D(W, H), faults)
        for region in result.regions:
            x0, y0, x1, y1 = region.cells.bounding_box()
            width = x1 - x0 + 1
            height = y1 - y0 + 1
            assert perimeter(region.cells) == 2 * (width + height)

    @given(fault_sets(W, H, 12, min_faults=1))
    @settings(max_examples=30, deadline=None)
    def test_blocks_satisfy_the_same_identity(self, faults):
        # Rectangles are orthoconvex, so the identity holds a fortiori.
        result = label_mesh(Mesh2D(W, H), faults)
        for block in result.blocks:
            assert perimeter(block.cells) == 2 * (
                block.rect.width + block.rect.height
            )
