"""Evaluation of fault-cover partitions.

The paper's open problem (Section 4, conjectured NP-complete): given a
faulty block, find a set of orthogonal convex polygons covering all its
faults with a *minimum* number of nonfaulty nodes.  A
:class:`FaultCover` is one candidate solution — a family of pairwise
disjoint orthogonal convex polygons whose union contains every fault —
and knows its own cost.  The heuristics in :mod:`repro.partition.cuts`
and :mod:`repro.partition.clusters` produce covers; the exact search in
:mod:`repro.partition.exact` certifies optimality on small instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import PartitionError
from repro.geometry.cells import CellSet
from repro.geometry.orthoconvex import is_orthoconvex

__all__ = ["FaultCover"]

#: Pairwise Manhattan distance the cover builders keep between polygons:
#: the paper's disabled-region separation (Section 4), so covers stay
#: drop-in fault regions for the routing layer.
_MIN_SEPARATION = 2


@dataclass(frozen=True)
class FaultCover:
    """A family of disjoint orthoconvex polygons covering a fault set.

    Attributes
    ----------
    faults:
        The faults that must be covered.
    polygons:
        The covering polygons.
    """

    faults: CellSet
    polygons: Tuple[CellSet, ...]

    @classmethod
    def build(cls, faults: CellSet, polygons: Sequence[CellSet]) -> "FaultCover":
        """Validate and build a cover.

        Raises
        ------
        PartitionError
            If polygons overlap, are not orthoconvex, or miss a fault.
        """
        if not faults:
            raise PartitionError("no faults to cover")
        union = np.zeros(faults.shape, dtype=bool)
        for k, p in enumerate(polygons):
            if not is_orthoconvex(p, require_connected=True):
                raise PartitionError(f"cover polygon {k} is not orthoconvex")
            if np.any(union & p.mask):
                raise PartitionError(f"cover polygon {k} overlaps another")
            union |= p.mask
        if np.any(faults.mask & ~union):
            missing = CellSet(faults.mask & ~union).coords()[:3]
            raise PartitionError(f"faults not covered, e.g. {missing}")
        return cls(faults=faults, polygons=tuple(polygons))

    @property
    def total_cells(self) -> int:
        """Total cells across all polygons."""
        return sum(len(p) for p in self.polygons)

    @property
    def num_nonfaulty(self) -> int:
        """The objective: nonfaulty cells imprisoned by the cover."""
        return self.total_cells - len(self.faults)

    @property
    def num_polygons(self) -> int:
        """How many polygons the cover uses."""
        return len(self.polygons)

    def improvement_over(self, baseline: "FaultCover") -> int:
        """How many nonfaulty nodes this cover frees relative to another."""
        return baseline.num_nonfaulty - self.num_nonfaulty

    def separation(self) -> int:
        """Minimum pairwise Manhattan distance between cover polygons.

        The builders promise at least ``_MIN_SEPARATION`` = 2 (matching
        the disabled-region guarantee) so covers stay drop-in fault
        regions for routing.
        Returns a large sentinel for single-polygon covers.
        """
        from repro.geometry.components import set_distance

        if len(self.polygons) < 2:
            return 10**9
        return min(
            set_distance(self.polygons[i], self.polygons[j])
            for i in range(len(self.polygons))
            for j in range(i + 1, len(self.polygons))
        )
