"""Distributed execution substrate: a synchronous message-passing fabric.

The paper's algorithms are distributed protocols driven by iterative
message exchanges among mesh neighbours, executed in lock-step rounds.
This package simulates exactly that execution model: per-node programs
(:class:`~repro.fabric.program.NodeProgram`) run on a
:class:`~repro.fabric.engine.SynchronousEngine` that delivers messages
round by round, detects quiescence, and records round/message
statistics — the quantities Figure 5 (a)/(b) of the paper reports.
"""

from repro._lazy import lazy_exports

__all__ = [
    "AsynchronousEngine",
    "ChannelModel",
    "EngineResult",
    "EpochStats",
    "Message",
    "NodeContext",
    "NodeProgram",
    "RoundTrace",
    "RunStats",
    "SynchronousEngine",
    "build_neighbor_sets",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "async_engine": ("AsynchronousEngine",),
    "channel": ("ChannelModel",),
    "engine": ("EngineResult", "SynchronousEngine", "build_neighbor_sets"),
    "message": ("Message",),
    "program": ("NodeContext", "NodeProgram"),
    "stats": ("EpochStats", "RunStats"),
    "trace": ("RoundTrace",),
})
