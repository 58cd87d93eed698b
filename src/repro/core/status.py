"""Node status vocabulary (Section 3 of the paper).

The paper classifies nodes along three orthogonal axes:

1. **faulty** vs **nonfaulty** — ground truth, fixed by the fault set;
2. **safe** vs **unsafe** — phase 1 (Definition 2a or 2b); every faulty
   node is unsafe, and connected unsafe nodes form the *faulty blocks*;
3. **enabled** vs **disabled** — phase 2 (Definition 3); every faulty
   node is disabled, every safe node enabled, and connected disabled
   nodes form the *disabled regions* (the orthogonal convex polygons).

A faulty node is necessarily unsafe and disabled; a nonfaulty node is
one of *safe+enabled*, *unsafe+enabled* (activated by phase 2) or
*unsafe+disabled*.  :class:`NodeStatus` enumerates those four composite
states and :class:`LabelGrid` packages the three label planes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from repro.errors import GeometryError
from repro.geometry.cells import CellSet
from repro.types import BoolGrid, Coord

__all__ = ["SafetyDefinition", "NodeStatus", "LabelGrid"]


class SafetyDefinition(enum.Enum):
    """Which phase-1 unsafe rule to use.

    * ``DEF_2A`` — a nonfaulty node is unsafe if it has **two or more**
      unsafe neighbours (Definition 2a; the classic faulty-block rule).
    * ``DEF_2B`` — a nonfaulty node is unsafe if it has an unsafe
      neighbour **in both dimensions** (Definition 2b; the enhanced rule
      that imprisons fewer nonfaulty nodes).

    The two rules differ exactly when a node has two unsafe neighbours
    along the *same* dimension: unsafe under 2a, safe under 2b.
    """

    DEF_2A = "2a"
    DEF_2B = "2b"

    @property
    def min_block_separation(self) -> int:
        """Guaranteed minimum distance between two faulty blocks
        (paper: at least 3 under Definition 2a, at least 2 under 2b)."""
        return 3 if self is SafetyDefinition.DEF_2A else 2


class NodeStatus(enum.Enum):
    """Composite per-node status after both labeling phases."""

    FAULTY = "faulty"                    # unsafe and disabled by definition
    SAFE_ENABLED = "safe"                # never entered a faulty block
    UNSAFE_ENABLED = "activated"         # in a faulty block, freed by phase 2
    UNSAFE_DISABLED = "disabled"         # in a faulty block and kept disabled

    @property
    def participates_in_routing(self) -> bool:
        """Only enabled nodes take part in routing (paper Section 3)."""
        return self in (NodeStatus.SAFE_ENABLED, NodeStatus.UNSAFE_ENABLED)


@dataclass(frozen=True)
class LabelGrid:
    """The three boolean label planes produced by the pipeline.

    Attributes
    ----------
    faulty:
        Ground-truth fault mask.
    unsafe:
        Phase-1 labels; a superset of ``faulty``.
    enabled:
        Phase-2 labels; disjoint from ``faulty`` and a superset of the
        safe (non-unsafe) nodes.
    """

    faulty: BoolGrid
    unsafe: BoolGrid
    enabled: BoolGrid

    def __post_init__(self) -> None:
        shapes = {self.faulty.shape, self.unsafe.shape, self.enabled.shape}
        if len(shapes) != 1:
            raise GeometryError(f"label planes disagree on shape: {shapes}")
        if np.greater(self.faulty, self.unsafe).any():
            raise GeometryError("invariant violated: a faulty node is not unsafe")
        if np.logical_and(self.faulty, self.enabled).any():
            raise GeometryError("invariant violated: a faulty node is enabled")
        if not np.logical_or(self.unsafe, self.enabled).all():
            raise GeometryError("invariant violated: a safe node is disabled")

    @property
    def shape(self) -> Tuple[int, int]:
        """Grid shape ``(width, height)``."""
        return self.faulty.shape  # type: ignore[return-value]

    @cached_property
    def disabled(self) -> BoolGrid:
        """Disabled nodes: unsafe and not enabled (includes all faults)."""
        disabled = np.greater(self.unsafe, self.enabled)
        disabled.setflags(write=False)
        return disabled

    @property
    def activated(self) -> BoolGrid:
        """Nonfaulty nodes freed by phase 2: unsafe yet enabled."""
        return self.unsafe & self.enabled

    @property
    def unsafe_nonfaulty(self) -> BoolGrid:
        """Nonfaulty nodes imprisoned by phase 1 — the denominator of the
        paper's Figure 5 (c)/(d) ratio."""
        return self.unsafe & ~self.faulty

    def status_of(self, c: Coord) -> NodeStatus:
        """Composite status of one node."""
        x, y = c
        if self.faulty[x, y]:
            return NodeStatus.FAULTY
        if not self.unsafe[x, y]:
            return NodeStatus.SAFE_ENABLED
        return (
            NodeStatus.UNSAFE_ENABLED
            if self.enabled[x, y]
            else NodeStatus.UNSAFE_DISABLED
        )

    def counts(self) -> dict:
        """Node counts per composite status (plus the ratio inputs)."""
        faulty = int(self.faulty.sum())
        unsafe_nonfaulty = int(self.unsafe_nonfaulty.sum())
        activated = int(self.activated.sum())
        disabled_nonfaulty = unsafe_nonfaulty - activated
        total = int(np.prod(self.shape))
        return {
            "faulty": faulty,
            "safe": total - faulty - unsafe_nonfaulty,
            "unsafe_nonfaulty": unsafe_nonfaulty,
            "activated": activated,
            "disabled_nonfaulty": disabled_nonfaulty,
        }

    def disabled_cells(self) -> CellSet:
        """The disabled nodes as a cell set."""
        return CellSet(self.disabled)

    def unsafe_cells(self) -> CellSet:
        """The unsafe nodes as a cell set."""
        return CellSet(self.unsafe)
