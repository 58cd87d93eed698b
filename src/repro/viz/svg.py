"""Dependency-free SVG export of fault polygons and label grids.

Writes publication-style pictures of the paper's constructions —
faults, faulty-block rectangles and disabled-region polygons — as
standalone SVG files.  No plotting library is required (none is
available offline); the SVG is assembled textually, with polygon
outlines taken from :func:`repro.geometry.boundary.boundary_loops`.

Coordinate convention matches the figures: the origin is the grid's
south-west corner, so the y axis is flipped relative to SVG's
screen-down convention.
"""

from __future__ import annotations

from typing import List

from repro.core.pipeline import LabelingResult
from repro.geometry.boundary import boundary_loops
from repro.geometry.cells import CellSet

__all__ = ["svg_of_result"]

# A small colour-blind-safe palette.
_FILL_FAULTY = "#1f1f1f"
_FILL_DISABLED = "#e0a43c"
_FILL_ACTIVATED = "#7cc674"
_FILL_SAFE = "#f4f4f4"
_STROKE_BLOCK = "#c9190b"
_STROKE_REGION = "#06c"


def _header(w: int, h: int, scale: int) -> List[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{w * scale}" height="{h * scale}" '
        f'viewBox="0 0 {w * scale} {h * scale}">',
    ]


def _rect(x: int, y: int, h: int, scale: int, fill: str) -> str:
    # Flip y: cell (x, y) has its top edge at grid y+1.
    top = (h - 1 - y) * scale
    return (
        f'<rect x="{x * scale}" y="{top}" width="{scale}" height="{scale}" '
        f'fill="{fill}" stroke="#ffffff" stroke-width="0.5"/>'
    )


def _loops_path(cells: CellSet, h: int, scale: int, stroke: str, width: float) -> str:
    parts: List[str] = []
    for loop in boundary_loops(cells):
        pts = " ".join(f"{x * scale},{(h - y) * scale}" for x, y in loop)
        parts.append(
            f'<polygon points="{pts}" fill="none" '
            f'stroke="{stroke}" stroke-width="{width}"/>'
        )
    return "\n".join(parts)


def svg_of_result(
    result: LabelingResult,
    scale: int = 12,
) -> str:
    """Render a labeling result as an SVG document string.

    Cells are coloured by composite status; faulty-block rectangles and
    disabled-region polygons are outlined on top.
    """
    w, h = result.labels.shape
    doc = _header(w, h, scale)
    labels = result.labels
    for x in range(w):
        for y in range(h):
            if labels.faulty[x, y]:
                fill = _FILL_FAULTY
            elif labels.disabled[x, y]:
                fill = _FILL_DISABLED
            elif labels.unsafe[x, y]:
                fill = _FILL_ACTIVATED
            else:
                fill = _FILL_SAFE
            doc.append(_rect(x, y, h, scale, fill))
    for b in result.blocks:
        doc.append(_loops_path(b.cells, h, scale, _STROKE_BLOCK, 1.5))
    for r in result.regions:
        doc.append(_loops_path(r.cells, h, scale, _STROKE_REGION, 2.0))
    doc.append("</svg>")
    return "\n".join(doc)
