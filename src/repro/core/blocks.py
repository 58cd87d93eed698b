"""Faulty blocks: the rectangular fault regions of phase 1.

A *faulty block* consists of connected (mesh-link, i.e. 4-connected)
unsafe nodes.  Under both Definition 2a and 2b the blocks are provably
disjoint full rectangles; :func:`extract_blocks` decomposes an unsafe
mask into blocks and — because that rectangularity is a theorem, not an
assumption — validates it for every component, failing loudly if a
non-rectangular component ever appears.

:func:`extract_blocks` cuts the unsafe and fault masks into vertical
runs on their 64-cell words, runs one union-find label pass over the
unsafe runs and reduces bounding boxes and sizes over those runs, not
over member cells.  It returns :class:`Blocks`, a sequence over that
table (:class:`Geometry`): a block object is built when one is read.
:func:`extract_blocks_reference` keeps the original per-component path
as the oracle; both return equal block lists (property tested).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import GeometryError
from repro.geometry.cells import CellSet
from repro.geometry.components import (
    CellTable,
    _label_runs,
    _Runs,
    _scan,
    _subset_runs,
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


def _check_covers(covered: bool, name: str) -> None:
    """Every fault lies in the ``name`` mask."""
    if not covered:
        raise GeometryError(f"a faulty node is missing from the {name} mask")


def _faults_in(runs: _Runs, faults: _Runs, h: int, name: str) -> _Runs:
    """The fault runs labeled with the components of the labeled
    ``name`` runs that hold them; every fault must lie in one."""
    held = _subset_runs(runs, faults, h)
    _check_covers(held is not None, name)
    return held


def _check_rectangles(
    runs: _Runs, shape: Tuple[int, int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Every component of the labeled 4-connected ``runs`` on a grid of
    ``shape`` fills its bounding box; returns their sizes and boxes.
    The runs may come from a stack of planes, which moves boxes but
    never changes their widths."""
    sizes = runs.sizes()
    boxes = runs.boxes()
    x0, y0, x1, y1 = boxes
    bad = np.flatnonzero(sizes != (x1 - x0 + 1) * (y1 - y0 + 1))
    if bad.size:
        raise GeometryError(
            f"faulty block CellSet(shape={shape}, count={sizes[bad[0]]}) is not a "
            "rectangle — phase-1 labels corrupt"
        )
    return sizes, boxes


class Geometry(Sequence):
    """The blocks or regions of one result, an immutable sequence over
    their table: the :class:`~repro.geometry.components.CellTable` of the
    items' ``cells`` and of their ``faults``, and the ``(4, n)`` block
    ``rects`` (``None`` for regions).  ``len`` reads the table; an item is
    built on first read and kept.  Equal to any list of equal items."""

    def __init__(self, cells: CellTable, faults: CellTable, rects=None, items=None):
        self.cells, self.faults, self.rects = cells, faults, rects
        self._items = [None] * len(cells) if items is None else items

    @classmethod
    def of(cls, shape: Tuple[int, int], items: Sequence) -> "Geometry":
        """The sequence of the objects ``items``, which it hands back."""
        items = list(items)
        cells = CellTable.of(shape, [i.cells for i in items])
        return cls(cells, CellTable.of(shape, [i.faults for i in items]), None, items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(len(self))[k]]
        item = self._items[k]
        if item is None:
            item = self._items[k] = self._build(range(len(self))[k])
        return item

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Geometry, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __add__(self, other: Sequence) -> list:
        return [*self, *other]

    def __repr__(self) -> str:
        return repr(list(self))


class Blocks(Geometry):
    """The faulty blocks of one result (:class:`Geometry`)."""

    @classmethod
    def of(cls, shape: Tuple[int, int], items: Sequence) -> "Blocks":
        blocks = super().of(shape, items)
        rects = [(b.rect.x0, b.rect.y0, b.rect.x1, b.rect.y1) for b in blocks._items]
        blocks.rects = np.array(rects, dtype=np.int64).reshape(-1, 4).T
        return blocks

    def _build(self, k: int) -> FaultyBlock:
        return FaultyBlock(
            cells=self.cells.cellset(k),
            rect=Rect(*self.rects[:, k].tolist()),
            faults=self.faults.cellset(k),
        )


def extract_blocks(
    unsafe: BoolGrid, faulty: BoolGrid, fault_runs: Optional[_Runs] = None
) -> Blocks:
    """Decompose an unsafe mask into faulty blocks.

    Parameters
    ----------
    unsafe:
        Phase-1 labels (must contain every fault).
    faulty:
        Ground-truth fault mask.
    fault_runs:
        The runs of ``faulty``, when the caller has already cut them
        (:func:`~repro.core.pipeline.assemble_result` cuts them once for
        blocks and regions); cut here otherwise.

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
    if fault_runs is None:
        fault_runs = _scan(faulty)
    runs = _label_runs(_scan(unsafe), shape[1], connectivity=4)
    held = _faults_in(runs, fault_runs, shape[1], "unsafe")
    sizes, boxes = _check_rectangles(runs, shape)
    return Blocks(
        CellTable(shape, np.vstack([boxes, sizes])), CellTable.group(shape, held), boxes
    )


def extract_blocks_reference(unsafe: BoolGrid, faulty: BoolGrid) -> List[FaultyBlock]:
    """The per-component oracle for :func:`extract_blocks`: BFS
    components, one rectangle test and one fault mask per block.
    Same result and the same errors, at per-cell Python cost."""
    _check_shapes(unsafe, faulty, "unsafe")
    _check_covers(bool(unsafe[faulty].all()), "unsafe")
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
