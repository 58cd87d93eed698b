"""The paper's core contribution: two-phase distributed labeling.

Phase 1 (Definitions 2a/2b) builds rectangular faulty blocks; phase 2
(Definition 3) shrinks them to orthogonal convex polygons by activating
nonfaulty nodes.  Both phases exist as a faithful distributed protocol
on the message-passing fabric and as a vectorized NumPy fixpoint, with
identical labels and round counts.  :func:`~repro.core.pipeline.label_mesh`
is the main entry point; :mod:`repro.core.theorems` mechanically checks
every claim of Section 4.
"""

from repro.core.blocks import FaultyBlock, extract_blocks
from repro.core.distributed import (
    async_enabled,
    async_unsafe,
    distributed_enabled,
    distributed_unsafe,
)
from repro.core.enabling import (
    enabled_fixpoint,
    enabled_step,
    recursive_enable_fixpoints,
)
from repro.core.frontier import enabled_fixpoint_sparse, unsafe_fixpoint_sparse
from repro.core.incremental import (
    BlockEnableCache,
    DeltaReport,
    IncrementalLabeling,
)
from repro.core.maintenance import MaintainedLabeling, UpdateReport
from repro.core.pipeline import LabelingResult, assemble_result, label_mesh
from repro.core.protocols import EnableProgram, SafetyProgram
from repro.core.regions import DisabledRegion, extract_regions
from repro.core.safety import unsafe_fixpoint, unsafe_step
from repro.core.status import LabelGrid, NodeStatus, SafetyDefinition
from repro.core import theorems

__all__ = [
    "BlockEnableCache",
    "DeltaReport",
    "DisabledRegion",
    "EnableProgram",
    "FaultyBlock",
    "IncrementalLabeling",
    "LabelGrid",
    "LabelingResult",
    "MaintainedLabeling",
    "NodeStatus",
    "SafetyDefinition",
    "SafetyProgram",
    "UpdateReport",
    "assemble_result",
    "async_enabled",
    "async_unsafe",
    "distributed_enabled",
    "distributed_unsafe",
    "enabled_fixpoint",
    "enabled_fixpoint_sparse",
    "enabled_step",
    "extract_blocks",
    "extract_regions",
    "label_mesh",
    "recursive_enable_fixpoints",
    "theorems",
    "unsafe_fixpoint",
    "unsafe_fixpoint_sparse",
    "unsafe_step",
]
