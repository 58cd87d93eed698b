"""Rectilinear grid geometry: cell sets, components, orthogonal convexity.

This package is the geometric substrate under the paper's fault model:
cell sets and their connected components, rectangles (faulty blocks),
orthogonal convexity tests and closures (disabled regions), boundary
tracing, corner nodes and quadrant analysis (Definition 4, Lemmas 1-3),
and the canonical L/T/+/U/H fault shapes.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CellSet",
    "Rect",
    "boundary_loops",
    "bounding_rect",
    "column_runs",
    "connect_orthoconvex",
    "connected_components",
    "corner_cells",
    "fill_spans",
    "is_connected",
    "is_orthoconvex",
    "is_rectangle",
    "label_components",
    "orthoconvex_closure",
    "perimeter",
    "quadrant_extreme_corner",
    "quadrant_mask",
    "quadrants_with_members",
    "row_runs",
    "set_distance",
    "shapes",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "boundary": ("boundary_loops", "corner_cells", "perimeter"),
    "cells": ("CellSet",),
    "components": (
        "connected_components", "is_connected", "label_components", "set_distance",
    ),
    "orthoconvex": (
        "column_runs", "fill_spans", "is_orthoconvex", "orthoconvex_closure",
        "row_runs",
    ),
    "quadrants": ("quadrant_extreme_corner", "quadrant_mask", "quadrants_with_members"),
    "rectangles": ("Rect", "bounding_rect", "is_rectangle"),
    "staircase": ("connect_orthoconvex",),
    "shapes": ("shapes",),
})
