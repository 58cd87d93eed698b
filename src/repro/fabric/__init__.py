"""Distributed execution substrate: a message-passing fabric.

The paper's algorithms are distributed protocols driven by iterative
message exchanges among mesh neighbours, executed in lock-step rounds.
This package simulates that execution model: per-node programs
(:class:`~repro.fabric.program.NodeProgram`) run on a
:class:`~repro.fabric.engine.SynchronousEngine` that delivers messages
round by round, detects quiescence, and records round/message
statistics — the quantities Figure 5 (a)/(b) of the paper reports.
The same programs also run on an
:class:`~repro.fabric.async_engine.AsynchronousEngine` that delivers
each message after a random bounded delay, which shows the protocols
do not depend on the lock-step schedule.  Both engines accept crash
schedules and lossy :class:`~repro.fabric.channel.ChannelModel` links,
and share one run core for everything but their schedulers.
"""

from repro._lazy import lazy_exports

__all__ = [
    "AsynchronousEngine",
    "ChannelModel",
    "EngineResult",
    "EpochStats",
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
    "program": ("NodeContext", "NodeProgram"),
    "stats": ("EpochStats", "RunStats"),
    "trace": ("RoundTrace",),
})
