"""Fault-tolerant routing over the paper's fault models.

The application layer the labeling exists for.  A
:class:`~repro.routing.base.FaultModelView` exposes which nodes may
carry traffic under the classic faulty-block model or the paper's
refined disabled-region model; routers (dimension-order XY, boundary
wall-following, minimal-adaptive, and a BFS oracle) run over either
view, and the metrics/CDG modules quantify delivery, detours and
deadlock-freedom.
"""

from repro._lazy import lazy_exports

# Eager: ``broadcast`` and ``safety_levels`` share their submodules' names (see repro._lazy).
from repro.routing.broadcast import BroadcastResult, broadcast
from repro.routing.safety_levels import SafetyLevelRouter, safety_levels

__all__ = [
    "BFSRouter",
    "DetourKernel",
    "TrafficKernel",
    "XYKernel",
    "make_kernel",
    "BroadcastResult",
    "broadcast",
    "Channel",
    "DropReason",
    "FRingRouter",
    "FaultModelView",
    "MinimalRouter",
    "NegativeFirstRouter",
    "Router",
    "WestFirstRouter",
    "RouteResult",
    "RoutingMetrics",
    "SafetyLevelRouter",
    "WallRouter",
    "XYRouter",
    "safety_levels",
    "all_channels",
    "all_enabled_pairs",
    "channel_dependency_graph",
    "deadlock_cycles",
    "evaluate_router",
    "is_deadlock_free",
    "minimal_feasible",
    "sample_pairs",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "base": ("FaultModelView", "Router"),
    "bfs": ("BFSRouter",),
    "cdg": (
        "all_enabled_pairs", "channel_dependency_graph", "deadlock_cycles",
        "is_deadlock_free",
    ),
    "channels": ("Channel", "all_channels"),
    "fring": ("FRingRouter",),
    "metrics": ("RoutingMetrics", "evaluate_router", "sample_pairs"),
    "minimal": ("MinimalRouter", "minimal_feasible"),
    "turns": ("NegativeFirstRouter", "WestFirstRouter"),
    "packet": ("DropReason", "RouteResult"),
    "vectorized": ("DetourKernel", "TrafficKernel", "XYKernel", "make_kernel"),
    "wall": ("WallRouter",),
    "xy": ("XYRouter",),
})
