"""Batched store-and-forward engine: semantics, determinism, telemetry.

The bit-for-bit oracle equivalence lives in
``tests/properties/test_batched_traffic_props.py``; this file pins the
concrete behaviours the property grid cannot name individually —
latency accounting, drop reasons, contention priority, empty-run
semantics, the synthetic traffic generators, and the sweep/telemetry
wiring.
"""

import numpy as np
import pytest

from repro.core import label_mesh
from repro.errors import RoutingError
from repro.faults import FaultSet
from repro.mesh import Mesh2D
from repro.network import (
    BatchedNetwork,
    BatchedTraffic,
    TRAFFIC_PATTERNS,
    injection_sweep,
    synthetic_traffic,
)
from repro.obs import JSONLSink, MemorySink, MetricsRegistry, Telemetry, nearest_rank
from repro.obs.events import validate_event
from repro.obs.summarize import format_summary, summarize_trace
from repro.routing import FaultModelView

W = H = 8


def clean_view(n=W):
    return FaultModelView(Mesh2D(n, n), np.ones((n, n), dtype=bool))


def faulty_views(coords, n=W):
    res = label_mesh(Mesh2D(n, n), FaultSet.from_coords((n, n), coords))
    return FaultModelView.from_blocks(res), FaultModelView.from_regions(res)


def one_packet(view, source, dest, kernel="detour", inject=0, **kw):
    net = BatchedNetwork(view, kernel=kernel, **kw)
    return net.run(BatchedTraffic.from_pairs([(source, dest)], inject=[inject]))


class TestSinglePacket:
    def test_xy_latency_is_manhattan(self):
        res = one_packet(clean_view(), (0, 0), (5, 3), kernel="xy")
        assert res.num_delivered == 1
        assert int(res.hops[0]) == 8
        assert int(res.stalls[0]) == 0
        # One hop per cycle, no contention: latency equals distance.
        assert res.latencies.tolist() == [8]
        assert res.mean_latency == 8.0

    def test_injection_offset_excluded_from_latency(self):
        res = one_packet(clean_view(), (1, 1), (4, 1), kernel="xy", inject=100)
        assert res.num_delivered == 1
        assert int(res.finish[0] - res.inject[0]) == 3
        assert res.latencies.tolist() == [3]

    def test_local_delivery_is_free(self):
        res = one_packet(clean_view(), (2, 2), (2, 2), inject=5)
        assert res.num_delivered == 1
        assert int(res.hops[0]) == 0
        assert res.latencies.tolist() == [0]
        assert int(res.finish[0]) == 5

    def test_xy_blocked_by_fault_detour_survives(self):
        # Faults spanning the whole middle column block every XY path
        # across it; the rectangle-detour kernel walks around the block.
        coords = [(4, y) for y in range(1, H)]
        blocks, _ = faulty_views(coords)
        xy = one_packet(blocks, (0, 0), (7, 0), kernel="xy")
        assert xy.num_delivered == 1  # row 0 stays open for XY
        xy2 = one_packet(blocks, (0, 4), (7, 4), kernel="xy")
        assert xy2.num_delivered == 0
        assert xy2.drop_counts() == {"BLOCKED": 1}
        det = one_packet(blocks, (0, 4), (7, 4), kernel="detour")
        assert det.num_delivered == 1
        assert int(det.hops[0]) > 7  # detour costs extra hops

    def test_budget_drop(self):
        res = one_packet(clean_view(), (0, 0), (7, 7), kernel="xy", max_hops=3)
        assert res.num_delivered == 0
        assert res.drop_counts() == {"BUDGET": 1}
        assert int(res.hops[0]) == 3
        # Three hops in cycles 0-2, the drop in cycle 3: four cycles, in
        # both engines, as a drop on a blocked hop counts its cycle.
        assert res.cycles == 4
        ref = one_packet(
            clean_view(), (0, 0), (7, 7), kernel="xy", max_hops=3, engine="reference"
        )
        assert ref.equals(res), ref.diff_summary(res)

    def test_bad_endpoint_drop(self):
        blocks, _ = faulty_views([(3, 3)])
        assert not blocks.is_enabled((3, 3))
        res = one_packet(blocks, (3, 3), (0, 0))
        assert res.drop_counts() == {"BAD_ENDPOINT": 1}
        res = one_packet(blocks, (0, 0), (3, 3))
        assert res.drop_counts() == {"BAD_ENDPOINT": 1}
        assert int(res.start[0]) == -1

    def test_stuck_at_horizon(self):
        net = BatchedNetwork(clean_view(), kernel="xy")
        traffic = BatchedTraffic.from_pairs([((0, 0), (7, 7))])
        res = net.run(traffic, max_cycles=4)
        assert res.num_delivered == 0
        assert res.num_stuck == 1
        assert res.delivery_rate == 0.0


class TestContention:
    def test_oldest_packet_wins_the_link(self):
        # Both packets want the (0,0)->E link on cycle 0; packet ids are
        # assigned in injection order, so packet 0 is older and must win.
        traffic = BatchedTraffic.from_pairs(
            [((0, 0), (3, 0)), ((0, 0), (2, 0))]
        )
        res = BatchedNetwork(clean_view(), kernel="xy").run(traffic)
        assert res.num_delivered == 2
        assert int(res.stalls[0]) == 0
        assert int(res.stalls[1]) >= 1
        assert int(res.latencies[1]) > 2  # paid the stall

    def test_opposite_directions_share_no_link(self):
        # Links are directed: (0,0)->(1,0) and (1,0)->(0,0) both move.
        traffic = BatchedTraffic.from_pairs(
            [((0, 0), (1, 0)), ((1, 0), (0, 0))]
        )
        res = BatchedNetwork(clean_view(), kernel="xy").run(traffic)
        assert res.num_delivered == 2
        assert res.stalls.tolist() == [0, 0]
        assert res.latencies.tolist() == [1, 1]


class TestDeterminism:
    def _traffic(self, view, n=2000, seed=11):
        return synthetic_traffic(
            view, n, np.random.default_rng(seed), injection_rate=4.0
        )

    @pytest.mark.parametrize("kernel", ["xy", "detour"])
    def test_rerun_is_identical(self, kernel):
        blocks, _ = faulty_views([(2, 2), (2, 3), (5, 5)])
        traffic = self._traffic(blocks)
        net = BatchedNetwork(blocks, kernel=kernel)
        assert net.run(traffic).equals(net.run(traffic))

    @pytest.mark.parametrize("kernel", ["xy", "detour"])
    def test_compaction_threshold_is_invisible(self, kernel):
        # The tombstone/compaction lane machinery must not be
        # observable: an engine that compacts every cycle and one that
        # never compacts agree bit for bit.
        _, regions = faulty_views([(2, 2), (2, 3), (5, 5)])
        traffic = self._traffic(regions)
        eager = BatchedNetwork(regions, kernel=kernel)
        eager._COMPACT_FRAC = 1
        lazy = BatchedNetwork(regions, kernel=kernel)
        lazy._COMPACT_FRAC = 10**9
        assert eager.run(traffic).equals(lazy.run(traffic))

    @pytest.mark.parametrize("kernel", ["xy", "detour"])
    def test_matches_reference_oracle(self, kernel):
        blocks, _ = faulty_views([(3, 3), (3, 4), (4, 3), (6, 1)])
        traffic = self._traffic(blocks, n=1500, seed=23)
        fast = BatchedNetwork(blocks, kernel=kernel).run(traffic)
        slow = BatchedNetwork(blocks, kernel=kernel, engine="reference").run(
            traffic
        )
        assert fast.equals(slow), fast.diff_summary(slow)

    def test_unsorted_injection_rejected_gracefully(self):
        # from_pairs with out-of-order inject cycles still runs (the
        # engine sorts admissions), and equals the reference.
        pairs = [((0, 0), (5, 5)), ((7, 7), (1, 1)), ((3, 0), (3, 7))]
        traffic = BatchedTraffic.from_pairs(pairs, inject=[9, 0, 4])
        view = clean_view()
        fast = BatchedNetwork(view).run(traffic)
        slow = BatchedNetwork(view, engine="reference").run(traffic)
        assert fast.equals(slow)
        assert fast.num_delivered == 3

    def test_unknown_engine_and_kernel(self):
        with pytest.raises(RoutingError):
            BatchedNetwork(clean_view(), engine="quantum")
        with pytest.raises(RoutingError):
            BatchedNetwork(clean_view(), kernel="warp")


class TestResultStats:
    def test_empty_run_semantics(self):
        res = BatchedNetwork(clean_view()).run(BatchedTraffic.from_pairs([]))
        assert res.num_packets == 0
        assert res.delivery_rate == 1.0  # vacuous, matches NetworkResult
        assert np.isnan(res.mean_latency)
        assert np.isnan(res.p50_latency)
        assert np.isnan(res.p95_latency)
        assert np.isnan(res.p99_latency)
        assert res.latencies.size == 0
        assert res.drop_counts() == {}
        assert res.throughput == 0.0

    def test_nearest_rank(self):
        vals = np.array([10, 20, 30, 40], dtype=np.int64)
        assert nearest_rank(vals, 0.50) == 20.0
        assert nearest_rank(vals, 0.95) == 40.0
        assert nearest_rank(np.array([7]), 0.99) == 7.0

    def test_percentiles_from_run(self):
        view = clean_view()
        traffic = synthetic_traffic(
            view, 500, np.random.default_rng(3), injection_rate=2.0
        )
        res = BatchedNetwork(view, kernel="xy").run(traffic)
        lat = res.latencies
        assert res.p50_latency == nearest_rank(np.sort(lat), 0.50)
        assert res.p95_latency == nearest_rank(np.sort(lat), 0.95)
        assert res.p50_latency <= res.p95_latency <= res.p99_latency
        assert res.throughput == pytest.approx(res.num_delivered / res.cycles)


class TestTrafficGenerators:
    @pytest.mark.parametrize("pattern", TRAFFIC_PATTERNS)
    def test_endpoints_enabled_and_distinct(self, pattern):
        _, regions = faulty_views([(2, 2), (2, 3), (3, 2), (6, 6)])
        t = synthetic_traffic(
            regions, 400, np.random.default_rng(5), pattern=pattern
        )
        assert len(t) == 400 and t.pattern == pattern
        assert regions.enabled[t.sx, t.sy].all()
        assert regions.enabled[t.dx, t.dy].all()
        assert not ((t.sx == t.dx) & (t.sy == t.dy)).any()
        assert (np.diff(t.inject) >= 0).all()

    def test_transpose_destinations(self):
        t = synthetic_traffic(
            clean_view(), 200, np.random.default_rng(1), pattern="transpose"
        )
        assert (t.dx == t.sy).all() and (t.dy == t.sx).all()

    def test_bit_complement_destinations(self):
        t = synthetic_traffic(
            clean_view(), 200, np.random.default_rng(1), pattern="bit_complement"
        )
        assert (t.dx == W - 1 - t.sx).all()
        assert (t.dy == H - 1 - t.sy).all()

    def test_hotspot_concentrates_traffic(self):
        t = synthetic_traffic(
            clean_view(),
            1000,
            np.random.default_rng(2),
            pattern="hotspot",
            hotspot_fraction=0.9,
            num_hotspots=2,
        )
        flat = t.dx * H + t.dy
        _, counts = np.unique(flat, return_counts=True)
        top2 = np.sort(counts)[-2:].sum()
        assert top2 >= 700  # ~90% minus source-collision redraws

    def test_injection_rate_shapes_arrivals(self):
        rng = np.random.default_rng(9)
        slow = synthetic_traffic(clean_view(), 500, rng, injection_rate=0.5)
        rng = np.random.default_rng(9)
        fast = synthetic_traffic(clean_view(), 500, rng, injection_rate=8.0)
        assert slow.inject[-1] > fast.inject[-1]

    def test_generator_determinism(self):
        a = synthetic_traffic(clean_view(), 300, np.random.default_rng(4))
        b = synthetic_traffic(clean_view(), 300, np.random.default_rng(4))
        for col in ("sx", "sy", "dx", "dy", "inject"):
            assert np.array_equal(getattr(a, col), getattr(b, col))

    def test_rejects_bad_arguments(self):
        view = clean_view()
        rng = np.random.default_rng(0)
        with pytest.raises(RoutingError):
            synthetic_traffic(view, 10, rng, pattern="tornado")
        with pytest.raises(RoutingError):
            synthetic_traffic(view, 10, rng, injection_rate=0.0)
        with pytest.raises(RoutingError):
            synthetic_traffic(view, -1, rng)
        tiny = FaultModelView(Mesh2D(2, 2), np.zeros((2, 2), dtype=bool))
        with pytest.raises(RoutingError):
            synthetic_traffic(tiny, 10, rng)


class TestSweepAndTelemetry:
    def _sweep(self, telemetry=None):
        blocks, _ = faulty_views([(3, 3), (3, 4)])
        return injection_sweep(
            blocks,
            rates=[0.25, 4.0],
            num_packets=300,
            seed=7,
            kernel="xy",
            telemetry=telemetry,
        )

    def test_curve_shape(self):
        curve = self._sweep()
        assert len(curve.points) == 2
        assert curve.peak_throughput > 0
        for point in curve.points:
            assert point.packets == 300
            assert point.delivered + point.dropped + point.stuck == 300

    def test_events_validate_against_schemas(self):
        sink = MemorySink()
        self._sweep(telemetry=Telemetry(sinks=(sink,)))
        sweeps = sink.events("traffic_sweep")
        sats = sink.events("saturation_point")
        assert len(sweeps) == 2 and len(sats) == 1
        for event in sweeps + sats:
            validate_event(event)  # raises on schema drift
        assert {e.fields["rate"] for e in sweeps} == {0.25, 4.0}

    def test_histograms_populated(self):
        reg = MetricsRegistry()
        curve = self._sweep(telemetry=Telemetry(metrics=reg))
        delivered = sum(p.delivered for p in curve.points)
        lat = reg.histogram("packet_latency_cycles")
        assert lat.count == delivered
        occ = reg.histogram("link_occupancy")
        assert occ.count > 0
        assert occ.min >= 1.0  # only links with demand are observed

    def test_summarize_reports_routing_section(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        sink = JSONLSink(path)
        self._sweep(telemetry=Telemetry(sinks=(sink,)))
        sink.close()
        summary = summarize_trace(path)
        assert summary.routing  # keyed "view/kernel/pattern"
        key = next(iter(summary.routing))
        assert "xy" in key and "uniform" in key
        assert "routing" in format_summary(summary).lower()
