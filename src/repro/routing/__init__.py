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
    "Router",
    "RouteResult",
    "RoutingMetrics",
    "SafetyLevelRouter",
    "WallRouter",
    "XYRouter",
    "safety_levels",
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
        "Channel", "channel_dependency_graph", "deadlock_cycles", "is_deadlock_free",
    ),
    "fring": ("FRingRouter",),
    "metrics": ("RoutingMetrics", "evaluate_router", "sample_pairs"),
    "minimal": ("MinimalRouter", "minimal_feasible"),
    "packet": ("DropReason", "RouteResult"),
    "vectorized": ("DetourKernel", "TrafficKernel", "XYKernel", "make_kernel"),
    "wall": ("WallRouter",),
    "xy": ("XYRouter",),
})
