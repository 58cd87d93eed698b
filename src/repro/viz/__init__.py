"""Visualisation: ASCII grids and dependency-free SVG export.

Quick pictures of fault polygons and label grids, matching the paper's
figure conventions (origin at the south-west corner).
"""

from repro.viz.ascii_art import DEFAULT_GLYPHS, render_cells, render_result
from repro.viz.svg import svg_of_result

__all__ = [
    "DEFAULT_GLYPHS",
    "render_cells",
    "render_result",
    "svg_of_result",
]
