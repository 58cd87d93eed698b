"""ASCII rendering of label grids and regions.

The quickest way to *see* the paper's constructions: faults, the
rectangular faulty blocks around them, and the orthogonal convex
polygons phase 2 carves out.  Rendering follows the paper's figures —
the origin is at the **south-west** corner, x grows east, y grows
north — so printed pictures match the coordinates in the text.

Glyphs::

    #   faulty (or, for a cell set, a member)
    x   unsafe and disabled (kept in a disabled region)
    +   unsafe but enabled  (activated by phase 2)
    .   safe (or, for a cell set, not a member)
    @   highlighted member

Pictures carry y labels on the left and an x ruler underneath
(coordinates mod 10, so each stays one character wide);
:func:`render_cells` leaves them off with ``axes=False``.
"""

from __future__ import annotations

from typing import Dict

from repro.core.pipeline import LabelingResult
from repro.core.status import NodeStatus
from repro.geometry.cells import CellSet

__all__ = ["render_result", "render_cells", "DEFAULT_GLYPHS"]

DEFAULT_GLYPHS: Dict[NodeStatus, str] = {
    NodeStatus.FAULTY: "#",
    NodeStatus.UNSAFE_DISABLED: "x",
    NodeStatus.UNSAFE_ENABLED: "+",
    NodeStatus.SAFE_ENABLED: ".",
}


def render_result(result: LabelingResult) -> str:
    """Render a labeling result as an ASCII grid with axes."""
    w, h = result.labels.shape
    lines = []
    for y in range(h - 1, -1, -1):  # north row first
        row = "".join(
            DEFAULT_GLYPHS[result.labels.status_of((x, y))] for x in range(w)
        )
        lines.append(f"{y % 10} {row}")
    lines.append("  " + "".join(str(x % 10) for x in range(w)))
    return "\n".join(lines)


def render_cells(
    cells: CellSet,
    highlight: CellSet | None = None,
    axes: bool = True,
) -> str:
    """Render one cell set (optionally with a highlighted subset).

    Used by the geometry examples to draw shapes, closures and covers.
    """
    w, h = cells.shape
    lines = []
    for y in range(h - 1, -1, -1):
        chars = []
        for x in range(w):
            if highlight is not None and (x, y) in highlight:
                chars.append("@")
            elif (x, y) in cells:
                chars.append("#")
            else:
                chars.append(".")
        row = "".join(chars)
        lines.append(f"{y % 10} {row}" if axes else row)
    if axes:
        lines.append("  " + "".join(str(x % 10) for x in range(w)))
    return "\n".join(lines)
