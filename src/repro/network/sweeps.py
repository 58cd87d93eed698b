"""Injection-rate sweep driver for the batched traffic engine.

A *sweep* runs the same synthetic workload at increasing injection
rates and reports, per rate point, the accepted throughput and the
delivered-latency distribution — the standard way to locate a
network's **saturation point** (the knee where accepted throughput
stops tracking offered load and latency diverges).  This is the
instrument the payoff benchmarks use to compare the rectangle
faulty-block view against the paper's Def 2a / Def 2b region views:
a view that imprisons fewer nonfaulty nodes saturates later and
delivers more packets at equal offered load.

Each point emits a ``traffic_sweep`` event and the sweep emits one
``saturation_point`` event through the optional telemetry, which the
``repro obs summarize`` routing section aggregates.  Traffic can be
drawn from a different (smaller) view's enabled set via
``endpoint_view`` so competing views route *identical* workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.network.batched import BatchedNetwork, BatchedResult
from repro.network.traffic import synthetic_traffic
from repro.routing.base import FaultModelView

__all__ = ["SweepCurve", "SweepPoint", "injection_sweep"]

#: A rate point counts as pre-saturation while at least this fraction
#: of offered packets *finishes* (delivered or dropped by routing)
#: within the cycle horizon.  Packets still in flight at the horizon —
#: ``stuck`` — are the congestion signal; routing drops are a property
#: of the view, not of the offered load, and do not count against it.
SATURATION_DELIVERY = 0.95


@dataclass(frozen=True)
class SweepPoint:
    """One injection-rate point of a saturation sweep."""

    rate: float
    packets: int
    delivered: int
    dropped: int
    stuck: int
    cycles: int
    throughput: float
    delivery_rate: float
    mean_latency: float
    p50_latency: float
    p95_latency: float
    p99_latency: float

    @classmethod
    def from_result(cls, rate: float, result: BatchedResult) -> "SweepPoint":
        return cls(
            rate=float(rate),
            packets=result.num_packets,
            delivered=result.num_delivered,
            dropped=result.num_dropped,
            stuck=result.num_stuck,
            cycles=result.cycles,
            throughput=result.throughput,
            delivery_rate=result.delivery_rate,
            mean_latency=result.mean_latency,
            p50_latency=result.p50_latency,
            p95_latency=result.p95_latency,
            p99_latency=result.p99_latency,
        )

    @property
    def saturated(self) -> bool:
        if self.packets == 0:
            return False
        return (self.packets - self.stuck) / self.packets < SATURATION_DELIVERY


@dataclass(frozen=True)
class SweepCurve:
    """All points of one sweep plus the detected saturation knee."""

    view_label: str
    kernel: str
    pattern: str
    points: Tuple[SweepPoint, ...]

    @property
    def peak_throughput(self) -> float:
        return max((p.throughput for p in self.points), default=0.0)

    @property
    def saturation_rate(self) -> Optional[float]:
        """Highest swept rate that still drained ≥ 95% of offered load.

        ``None`` when even the lowest rate saturated.
        """
        best = None
        for p in self.points:
            if not p.saturated:
                best = p.rate
        return best

    @property
    def saturation_throughput(self) -> float:
        """Accepted throughput at the saturation rate (or the peak)."""
        for p in reversed(self.points):
            if not p.saturated:
                return p.throughput
        return self.peak_throughput


def injection_sweep(
    view: FaultModelView,
    rates: Sequence[float],
    num_packets: int,
    seed: int = 0,
    kernel="detour",
    pattern: str = "uniform",
    max_cycles: int = 1_000_000,
    drain_factor: Optional[float] = None,
    endpoint_view: Optional[FaultModelView] = None,
    view_label: str = "view",
    telemetry=None,
) -> SweepCurve:
    """Run ``pattern`` traffic at each rate and record the curve.

    Per-point traffic is seeded as ``(seed, point_index)`` so a sweep is
    reproducible point-by-point, and two sweeps that share ``seed`` and
    ``endpoint_view`` offer byte-identical workloads (the basis for
    fair view-vs-view payoff comparisons).

    With ``drain_factor`` set, each point's horizon shrinks to
    ``drain_factor`` times its own injection span (plus one hop-budget
    of latency slack) — a network keeping up with the offered load
    finishes comfortably inside it, while a saturated one leaves a
    backlog in flight, which is what :attr:`SweepPoint.saturated`
    detects.  With the default ``None``, every point gets the full
    ``max_cycles`` horizon, so only extreme backlogs register.
    """
    net = BatchedNetwork(view, kernel=kernel)
    sample_view = endpoint_view if endpoint_view is not None else view
    points: List[SweepPoint] = []
    for i, rate in enumerate(rates):
        rng = np.random.default_rng((seed, i))
        traffic = synthetic_traffic(
            sample_view,
            num_packets,
            rng,
            pattern=pattern,
            injection_rate=rate,
        )
        horizon = max_cycles
        if drain_factor is not None:
            span = int(num_packets / rate * drain_factor)
            horizon = min(max_cycles, span + net.max_hops)
        result = net.run(traffic, max_cycles=horizon, telemetry=telemetry)
        point = SweepPoint.from_result(rate, result)
        points.append(point)
        if telemetry is not None:
            telemetry.emit(
                "traffic_sweep",
                view=view_label,
                kernel=net.kernel.name,
                pattern=pattern,
                rate=point.rate,
                packets=point.packets,
                delivered=point.delivered,
                dropped=point.dropped,
                stuck=point.stuck,
                cycles=point.cycles,
                throughput=point.throughput,
                p50=point.p50_latency,
                p95=point.p95_latency,
                p99=point.p99_latency,
            )
    curve = SweepCurve(
        view_label=view_label,
        kernel=net.kernel.name,
        pattern=pattern,
        points=tuple(points),
    )
    if telemetry is not None:
        telemetry.emit(
            "saturation_point",
            view=view_label,
            kernel=net.kernel.name,
            pattern=pattern,
            rate=-1.0 if curve.saturation_rate is None else curve.saturation_rate,
            throughput=curve.saturation_throughput,
        )
    return curve
