"""Disabled regions: the orthogonal convex polygons of phase 2.

A *disabled region* (DR) consists of adjacent disabled nodes — faulty
nodes plus the nonfaulty nodes phase 2 could not activate.  Adjacency is
**king-move (8-connectivity)**: the paper's worked example groups the
diagonally touching faults ``(2,1)`` and ``(3,2)`` into one region,
because as closed unit squares they share a corner point and form one
pinched polygon.

Theorem 1 guarantees every DR is an orthogonal convex polygon and
Theorem 2 that it is the smallest one covering its faults.  Those are
*checked*, not assumed, by :mod:`repro.core.theorems`; this module only
extracts the regions and computes their bookkeeping.
:func:`extract_regions_reference` keeps the original per-component path
as the oracle for :func:`extract_regions` (property tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.blocks import (
    _check_covers,
    _check_shapes,
    _component_cells,
    _faults_in,
)
from repro.errors import GeometryError
from repro.geometry.cells import CellSet
from repro.geometry.components import (
    _label_runs,
    _lazy_components,
    _Runs,
    _scan,
    connected_components_reference,
)
from repro.types import BoolGrid

__all__ = ["DisabledRegion", "extract_regions"]


@dataclass(frozen=True)
class DisabledRegion:
    """One disabled region (orthogonal convex polygon of disabled nodes)."""

    cells: CellSet
    faults: CellSet

    @property
    def num_faults(self) -> int:
        """Number of faulty nodes covered by the region."""
        return len(self.faults)

    @property
    def num_nonfaulty(self) -> int:
        """Number of nonfaulty nodes still kept disabled — the quantity
        Theorem 2 proves is minimal for an orthoconvex cover."""
        return len(self.cells) - len(self.faults)

    @property
    def diameter(self) -> int:
        """Manhattan diameter of the region."""
        return self.cells.diameter()


def _check_faults_held(runs: _Runs, held: np.ndarray, shape: Tuple[int, int]) -> None:
    """Every component of the labeled ``runs`` on a grid of ``shape``
    holds a fault: ``held`` counts each component's faults (or fault
    runs)."""
    empty = np.flatnonzero(held == 0)
    if empty.size:
        culprit = _component_cells(runs, shape, int(empty[0]))
        raise GeometryError(
            f"disabled region {culprit!r} contains no fault — phase-2 labels corrupt"
        )


def extract_regions(
    disabled: BoolGrid, faulty: BoolGrid, fault_runs: Optional[_Runs] = None
) -> List[DisabledRegion]:
    """Decompose a disabled mask into disabled regions.

    Parameters
    ----------
    disabled:
        Phase-2 ``unsafe & ~enabled`` mask (must contain every fault).
    faulty:
        Ground-truth fault mask.
    fault_runs:
        The runs of ``faulty``, when the caller has already cut them;
        cut here otherwise.

    One union-find label pass over the disabled mask's vertical runs;
    sizes, boxes and group splits are reduced over those runs.

    Returns
    -------
    Regions ordered by their smallest row-major cell.

    Raises
    ------
    GeometryError
        If a fault is not disabled, or a region contains no fault at
        all (phase 2 can never strand a fault-free region: its nodes
        would have been enabled; hitting this means corrupt labels).
    """
    _check_shapes(disabled, faulty, "disabled")
    shape = disabled.shape
    if fault_runs is None:
        fault_runs = _scan(faulty)
    runs = _label_runs(_scan(disabled), shape[1], connectivity=8)
    held = _faults_in(runs, fault_runs, shape[1], "disabled")
    _check_faults_held(runs, np.bincount(held.comp, minlength=runs.count), shape)
    cells = _lazy_components(shape, runs)
    faults = _lazy_components(shape, held)
    return [DisabledRegion(cells=c, faults=f) for c, f in zip(cells, faults)]


def extract_regions_reference(
    disabled: BoolGrid, faulty: BoolGrid
) -> List[DisabledRegion]:
    """The per-component oracle for :func:`extract_regions`: BFS
    components and one fault mask per region.  Same result and the
    same errors, at per-cell Python cost."""
    _check_shapes(disabled, faulty, "disabled")
    _check_covers(bool(disabled[faulty].all()), "disabled")
    regions: List[DisabledRegion] = []
    for comp in connected_components_reference(CellSet(disabled), connectivity=8):
        faults_in = CellSet(comp.mask & faulty)
        if not faults_in:
            raise GeometryError(
                f"disabled region {comp!r} contains no fault — "
                "phase-2 labels corrupt"
            )
        regions.append(DisabledRegion(cells=comp, faults=faults_in))
    return regions
