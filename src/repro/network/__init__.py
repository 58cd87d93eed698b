"""Network substrate: wormhole flit simulator + batched packet engine.

Two simulators share this package:

* the cycle-level **wormhole** flit simulator (worms, virtual channels,
  deadlock watchdog) used for the deadlock-freedom demonstrations, and
* the **batched store-and-forward engine**
  (:class:`~repro.network.batched.BatchedNetwork`) that advances every
  in-flight packet in parallel numpy arrays, fast enough for
  million-packet saturation campaigns over the paper's fault-model
  views, with injection-rate sweeps in :mod:`repro.network.sweeps`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BatchedNetwork",
    "BatchedResult",
    "BatchedTraffic",
    "Flit",
    "FlitKind",
    "HopFunction",
    "NetworkResult",
    "SweepCurve",
    "SweepPoint",
    "TRAFFIC_PATTERNS",
    "VCSelector",
    "WormPacket",
    "WormholeNetwork",
    "block_detour_hops",
    "clockwise_ring_hops",
    "dateline_vc_policy",
    "injection_sweep",
    "source_routed_traffic",
    "synthetic_traffic",
    "uniform_traffic",
    "xy_hops",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "batched": ("BatchedNetwork", "BatchedResult"),
    "flits": ("Flit", "FlitKind", "WormPacket"),
    "hops": ("HopFunction", "block_detour_hops", "clockwise_ring_hops", "xy_hops"),
    "simulator": ("NetworkResult", "VCSelector", "WormholeNetwork", "dateline_vc_policy"),
    "sweeps": ("SweepCurve", "SweepPoint", "injection_sweep"),
    "traffic": (
        "BatchedTraffic", "TRAFFIC_PATTERNS", "source_routed_traffic",
        "synthetic_traffic", "uniform_traffic",
    ),
})
