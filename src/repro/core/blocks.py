"""Faulty blocks: the rectangular fault regions of phase 1.

A *faulty block* consists of connected (mesh-link, i.e. 4-connected)
unsafe nodes.  Under both Definition 2a and 2b the blocks are provably
disjoint full rectangles; :func:`extract_blocks` decomposes an unsafe
mask into blocks and — because that rectangularity is a theorem, not an
assumption — validates it for every component, failing loudly if a
non-rectangular component ever appears.

:func:`extract_blocks` runs one union-find label pass over the vertical
runs of the unsafe mask and reduces bounding boxes and sizes over those
runs, not over member cells; every block's cells and faults are lazily
built :class:`~repro.geometry.cells.CellSet` values, so no component
touches a grid until it is read.  :func:`extract_blocks_reference`
keeps the original per-component path as the oracle; both return the
identical block list (property tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import GeometryError
from repro.geometry.cells import CellSet
from repro.geometry.components import (
    _fault_runs,
    _label_runs,
    _Runs,
    _lazy_components,
    connected_components_reference,
)
from repro.geometry.rectangles import Rect, bounding_rect, is_rectangle
from repro.types import BoolGrid

__all__ = ["FaultyBlock", "extract_blocks"]


@dataclass(frozen=True)
class FaultyBlock:
    """One rectangular faulty block.

    Attributes
    ----------
    cells:
        All member nodes (faulty and nonfaulty-unsafe).
    rect:
        The block's rectangle (equals the cells exactly).
    faults:
        The faulty members.
    """

    cells: CellSet
    rect: Rect
    faults: CellSet

    @property
    def num_faults(self) -> int:
        """Number of faulty nodes inside the block."""
        return len(self.faults)

    @property
    def num_nonfaulty(self) -> int:
        """Number of nonfaulty nodes imprisoned by the block — what the
        paper's refinement tries to minimise."""
        return len(self.cells) - len(self.faults)

    @property
    def diameter(self) -> int:
        """Manhattan diameter ``d(B)`` of the block."""
        return self.rect.diameter

    @property
    def reducible(self) -> bool:
        """Whether phase 2 has anything to work with: the block contains
        at least one nonfaulty node (Figure 5 (c)/(d) averages the
        enabled ratio over blocks like these)."""
        return self.num_nonfaulty > 0


def _check_shapes(mask: np.ndarray, faulty: np.ndarray, name: str) -> None:
    """The ``name`` label plane and the fault mask agree in shape."""
    if mask.shape != faulty.shape:
        raise GeometryError(
            f"label shapes disagree: {name} {mask.shape} vs faulty {faulty.shape}"
        )


def _check_covers(at_faults: np.ndarray, name: str) -> None:
    """Every fault lies in the ``name`` mask, given that mask read at
    every fault."""
    if not at_faults.all():
        raise GeometryError(f"a faulty node is missing from the {name} mask")


def _component_cells(
    runs: _Runs, xs: np.ndarray, ys: np.ndarray, shape: Tuple[int, int], comp: int
) -> CellSet:
    """Component ``comp`` of the labeled member scan ``xs``/``ys``."""
    members = runs.member_comps() == comp
    return CellSet.from_coords(shape, zip(xs[members].tolist(), ys[members].tolist()))


def _check_rectangles(
    runs: _Runs, xs: np.ndarray, ys: np.ndarray, shape: Tuple[int, int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Every component of the labeled 4-connected ``runs`` fills its
    bounding box; returns their sizes and boxes.

    ``xs``/``ys`` are the member scan in coordinates of ``shape``; the
    run columns may be offset from ``xs`` (a stack of planes), which
    moves boxes but never changes their widths."""
    sizes = runs.sizes()
    boxes = runs.boxes()
    x0, y0, x1, y1 = boxes
    bad = np.flatnonzero(sizes != (x1 - x0 + 1) * (y1 - y0 + 1))
    if bad.size:
        culprit = _component_cells(runs, xs, ys, shape, int(bad[0]))
        raise GeometryError(
            f"faulty block {culprit!r} is not a rectangle — phase-1 labels corrupt"
        )
    return sizes, boxes


def extract_blocks(unsafe: BoolGrid, faulty: BoolGrid) -> List[FaultyBlock]:
    """Decompose an unsafe mask into faulty blocks.

    Parameters
    ----------
    unsafe:
        Phase-1 labels (must contain every fault).
    faulty:
        Ground-truth fault mask.

    Returns
    -------
    Blocks ordered by their smallest row-major cell.

    Raises
    ------
    GeometryError
        If a fault lies outside the unsafe mask, or a component is not a
        full rectangle (both indicate a phase-1 bug, never user error).
    """
    _check_shapes(unsafe, faulty, "unsafe")
    shape = unsafe.shape
    fx, fy = np.nonzero(faulty)
    _check_covers(unsafe[fx, fy], "unsafe")
    xs, ys = np.nonzero(unsafe)
    runs = _label_runs(xs, ys, shape, connectivity=4)
    sizes, boxes = _check_rectangles(runs, xs, ys, shape)
    faults = _lazy_components(shape, fx, fy, _fault_runs(runs, fx, fy, shape[1]))
    lazy = CellSet._lazy
    return [
        FaultyBlock(cells=lazy(shape, (a, b, c, d), n), rect=Rect(a, b, c, d), faults=f)
        for (a, b, c, d), n, f in zip(boxes.T.tolist(), sizes.tolist(), faults)
    ]


def extract_blocks_reference(unsafe: BoolGrid, faulty: BoolGrid) -> List[FaultyBlock]:
    """The per-component oracle for :func:`extract_blocks`: BFS
    components, one rectangle test and one fault mask per block.
    Same result and the same errors, at per-cell Python cost."""
    _check_shapes(unsafe, faulty, "unsafe")
    _check_covers(unsafe[faulty], "unsafe")
    blocks: List[FaultyBlock] = []
    for comp in connected_components_reference(CellSet(unsafe), connectivity=4):
        if not is_rectangle(comp):
            raise GeometryError(
                f"faulty block {comp!r} is not a rectangle — phase-1 labels corrupt"
            )
        rect = bounding_rect(comp)
        faults_in = CellSet(comp.mask & faulty)
        blocks.append(FaultyBlock(cells=comp, rect=rect, faults=faults_in))
    return blocks
