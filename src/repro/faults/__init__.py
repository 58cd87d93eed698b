"""Fault modelling: fault sets, dynamic crash schedules, generators.

Node-fault injection per the paper's model (faulty nodes cease to work;
link faults reduce to node faults), plus the random, clustered,
rectangular and shaped fault patterns used across the benchmarks, and
:class:`~repro.faults.schedule.FaultSchedule` for crashes that strike
mid-protocol (the dynamic regime of Section 6's discussion).
"""

from repro._lazy import lazy_exports

__all__ = [
    "FaultSchedule",
    "FaultSet",
    "clustered",
    "rectangle_outage",
    "shaped",
    "staggered_crashes",
    "uniform_random",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "faultset": ("FaultSet",),
    "generators": (
        "clustered", "rectangle_outage", "shaped", "staggered_crashes",
        "uniform_random",
    ),
    "schedule": ("FaultSchedule",),
})
