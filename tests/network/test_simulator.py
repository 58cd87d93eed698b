"""Unit tests for the wormhole network simulator."""

import numpy as np
import pytest

from repro.core import label_mesh
from repro.errors import RoutingError
from repro.faults import FaultSet, clustered
from repro.mesh import Mesh2D
from repro.network import (
    WormholeNetwork,
    WormPacket,
    block_detour_hops,
    clockwise_ring_hops,
    dateline_vc_policy,
    uniform_traffic,
    xy_hops,
)
from repro.obs import nearest_rank
from repro.routing import BFSRouter, FaultModelView

RING = [(0, 0), (1, 0), (1, 1), (0, 1)]


def clean_view(n=8):
    return FaultModelView(Mesh2D(n, n), np.ones((n, n), dtype=bool))


class TestConstruction:
    def test_parameter_validation(self):
        m = Mesh2D(4, 4)
        with pytest.raises(RoutingError):
            WormholeNetwork(m, xy_hops(), num_vcs=0)
        with pytest.raises(RoutingError):
            WormholeNetwork(m, xy_hops(), buffer_depth=0)

    def test_bad_hop_function_detected(self):
        m = Mesh2D(4, 4)

        def teleport(at, dest):
            return dest  # not a link

        net = WormholeNetwork(m, teleport)
        p = WormPacket(0, (0, 0), (3, 3), length=2, inject_cycle=0)
        with pytest.raises(RoutingError):
            net.run([p])


class TestBasicTransport:
    def test_single_packet_minimal_latency(self):
        net = WormholeNetwork(Mesh2D(8, 8), xy_hops())
        p = WormPacket(0, (0, 0), (3, 0), length=1, inject_cycle=0)
        res = net.run([p])
        assert res.delivery_rate == 1.0
        assert not res.deadlocked
        # 3 hops, 1 flit: a handful of cycles, not dozens.
        assert p.latency is not None and p.latency <= 3 * 3

    def test_multi_flit_worm_delivers_in_order(self):
        net = WormholeNetwork(Mesh2D(8, 8), xy_hops(), buffer_depth=2)
        p = WormPacket(0, (0, 0), (4, 4), length=6, inject_cycle=0)
        res = net.run([p])
        assert p.delivered and p.flits_ejected == 6

    def test_local_delivery(self):
        net = WormholeNetwork(Mesh2D(4, 4), xy_hops())
        p = WormPacket(0, (2, 2), (2, 2), length=3, inject_cycle=5)
        res = net.run([p])
        assert p.delivered and p.latency == 0

    def test_injection_schedule_respected(self):
        net = WormholeNetwork(Mesh2D(8, 8), xy_hops())
        p = WormPacket(0, (0, 0), (2, 0), length=1, inject_cycle=10)
        res = net.run([p])
        assert p.start_cycle is not None and p.start_cycle >= 10

    def test_longer_packets_take_longer(self):
        lat = {}
        for length in (1, 8):
            net = WormholeNetwork(Mesh2D(8, 8), xy_hops())
            p = WormPacket(0, (0, 0), (5, 5), length=length, inject_cycle=0)
            net.run([p])
            lat[length] = p.latency
        assert lat[8] > lat[1]


class TestContentionAndDeadlock:
    def test_xy_under_load_never_deadlocks(self):
        view = clean_view()
        rng = np.random.default_rng(1)
        packets = uniform_traffic(view, 150, rng, packet_length=4, injection_rate=0.8)
        net = WormholeNetwork(Mesh2D(8, 8), xy_hops(), num_vcs=1, buffer_depth=2)
        res = net.run(packets)
        assert not res.deadlocked
        assert res.delivery_rate == 1.0

    def test_cyclic_routing_on_one_vc_deadlocks(self):
        hop = clockwise_ring_hops(RING)
        packets = [
            WormPacket(i, RING[i], RING[(i + 2) % 4], length=3, inject_cycle=0)
            for i in range(4)
        ]
        net = WormholeNetwork(
            Mesh2D(4, 4), hop, num_vcs=1, buffer_depth=1, watchdog=100
        )
        res = net.run(packets)
        assert res.deadlocked
        assert len(res.stuck) == 4

    def test_dateline_vcs_break_the_deadlock(self):
        hop = clockwise_ring_hops(RING)
        packets = [
            WormPacket(i, RING[i], RING[(i + 2) % 4], length=3, inject_cycle=0)
            for i in range(4)
        ]
        net = WormholeNetwork(
            Mesh2D(4, 4),
            hop,
            num_vcs=2,
            buffer_depth=1,
            vc_policy=dateline_vc_policy(RING),
            watchdog=200,
        )
        res = net.run(packets)
        assert not res.deadlocked
        assert res.delivery_rate == 1.0

    def test_more_vcs_alone_do_not_fix_cyclic_routing(self):
        # Extra VCs without a discipline only postpone the cycle: worms
        # long enough to span three ring links (farther than the VC
        # count can absorb) close the wait graph again.
        hop = clockwise_ring_hops(RING)
        packets = [
            WormPacket(i, RING[i], RING[(i + 3) % 4], length=4, inject_cycle=0)
            for i in range(4)
        ]
        net = WormholeNetwork(
            Mesh2D(4, 4), hop, num_vcs=2, buffer_depth=1, watchdog=150
        )
        res = net.run(packets)
        assert res.deadlocked


class TestFaultyMeshTransport:
    def test_xy_drops_at_fault_regions(self):
        m = Mesh2D(8, 8)
        res_label = label_mesh(m, FaultSet.from_coords((8, 8), [(4, 0), (4, 1)]))
        view = FaultModelView.from_regions(res_label)
        hop = xy_hops()
        # XY ignores faults; packets whose path crosses the region stall
        # on... actually the hop function routes into disabled nodes,
        # which the detour hop function avoids; use block_detour_hops.
        detour = block_detour_hops(FaultModelView.from_blocks(res_label))
        net = WormholeNetwork(m, detour, num_vcs=2, buffer_depth=2)
        p = WormPacket(0, (0, 0), (7, 0), length=3, inject_cycle=0)
        res = net.run([p])
        assert p.delivered

    def test_detour_traffic_on_clustered_faults(self):
        rng = np.random.default_rng(5)
        m = Mesh2D(12, 12)
        faults = clustered(m.shape, 10, rng, clusters=1, spread=1.2)
        res_label = label_mesh(m, faults)
        view = FaultModelView.from_blocks(res_label)
        net = WormholeNetwork(
            m, block_detour_hops(view), num_vcs=2, buffer_depth=2, watchdog=500
        )
        packets = uniform_traffic(view, 60, rng, packet_length=3, injection_rate=0.3)
        result = net.run(packets)
        # The memoryless detour can drop corner cases but must move the
        # bulk of the traffic without deadlocking the watchdog.
        assert result.delivery_rate > 0.9


class TestNetworkResult:
    def test_metrics_on_empty_run(self):
        net = WormholeNetwork(Mesh2D(4, 4), xy_hops())
        res = net.run([])
        assert res.delivery_rate == 1.0
        assert res.throughput == 0.0
        # Latency statistics over zero deliveries are nan, same
        # convention as BatchedResult.
        assert np.isnan(res.mean_latency)
        assert np.isnan(res.p50_latency)
        assert np.isnan(res.p95_latency)
        assert np.isnan(res.p99_latency)
        assert res.latencies.size == 0

    def test_throughput_accounting(self):
        net = WormholeNetwork(Mesh2D(8, 8), xy_hops())
        packets = [
            WormPacket(i, (0, i), (7, i), length=4, inject_cycle=0) for i in range(4)
        ]
        res = net.run(packets)
        assert res.throughput == pytest.approx(16 / res.cycles)

    def test_latency_percentiles(self):
        net = WormholeNetwork(Mesh2D(8, 8), xy_hops())
        rng = np.random.default_rng(12)
        packets = uniform_traffic(clean_view(), 80, rng, injection_rate=0.5)
        res = net.run(packets)
        lat = res.latencies
        assert lat.size == len(res.delivered)
        assert res.mean_latency == pytest.approx(float(lat.mean()))
        assert res.p50_latency == nearest_rank(np.sort(lat), 0.50)
        assert res.p95_latency == nearest_rank(np.sort(lat), 0.95)
        assert res.p99_latency == nearest_rank(np.sort(lat), 0.99)
        assert res.p50_latency <= res.p95_latency <= res.p99_latency
