"""The paper's core contribution: two-phase distributed labeling.

Phase 1 (Definitions 2a/2b) builds rectangular faulty blocks; phase 2
(Definition 3) shrinks them to orthogonal convex polygons by activating
nonfaulty nodes.  Both phases exist as a faithful distributed protocol
on the message-passing fabric and as a vectorized NumPy fixpoint, with
identical labels and round counts.  :func:`~repro.core.pipeline.label_mesh`
is the main entry point; :mod:`repro.core.theorems` mechanically checks
every claim of Section 4.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BlockEnableCache",
    "DeltaReport",
    "DisabledRegion",
    "EnableProgram",
    "FaultyBlock",
    "IncrementalLabeling",
    "LabelGrid",
    "LabelingResult",
    "NodeStatus",
    "SafetyDefinition",
    "SafetyProgram",
    "assemble_result",
    "async_enabled",
    "async_unsafe",
    "distributed_enabled",
    "distributed_unsafe",
    "enabled_fixpoint",
    "enabled_step",
    "extract_blocks",
    "extract_regions",
    "label_mesh",
    "recursive_enable_fixpoints",
    "theorems",
    "unsafe_fixpoint",
    "unsafe_step",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "blocks": ("FaultyBlock", "extract_blocks"),
    "distributed": ("async_enabled", "async_unsafe", "distributed_enabled", "distributed_unsafe"),
    "enabling": ("enabled_fixpoint", "enabled_step", "recursive_enable_fixpoints"),
    "incremental": ("BlockEnableCache", "DeltaReport", "IncrementalLabeling"),
    "pipeline": ("LabelingResult", "assemble_result", "label_mesh"),
    "protocols": ("EnableProgram", "SafetyProgram"),
    "regions": ("DisabledRegion", "extract_regions"),
    "safety": ("unsafe_fixpoint", "unsafe_step"),
    "status": ("LabelGrid", "NodeStatus", "SafetyDefinition"),
    "theorems": ("theorems",),
})
