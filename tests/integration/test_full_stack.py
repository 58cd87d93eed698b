"""Full-stack integration: one machine's life story.

A 24x24 machine accumulates faults over three events; after each event
the incremental engine's labels are verified, and after the last one the refined
fault model carries unicast traffic (graph level), a broadcast, and
wormhole worms (flit level) — every layer of the library on one
consistent scenario.
"""

import numpy as np
import pytest

from repro.core import IncrementalLabeling
from repro.core.theorems import RESULT_CHECKS
from repro.faults import uniform_random
from repro.mesh import Mesh2D
from repro.network import WormholeNetwork, source_routed_traffic
from repro.routing import (
    BFSRouter,
    FaultModelView,
    WallRouter,
    broadcast,
    evaluate_router,
    sample_pairs,
)

MESH = Mesh2D(24, 24)


@pytest.fixture(scope="module")
def story():
    rng = np.random.default_rng(2026)
    engine = IncrementalLabeling(MESH)
    for _ in range(3):
        engine.inject(uniform_random(MESH.shape, 6, rng))
        assert engine.verify_against_scratch()
    result = engine.snapshot()
    return result, rng


class TestLifeStory:
    def test_final_labels_satisfy_every_claim(self, story):
        result, _ = story
        for name, check in RESULT_CHECKS.items():
            outcome = check(result)
            assert outcome.holds, (name, outcome.detail)

    def test_unicast_over_the_refined_model(self, story):
        result, rng = story
        view = FaultModelView.from_regions(result)
        pairs = sample_pairs(view, 60, rng)
        metrics = evaluate_router(WallRouter(view), pairs)
        oracle = evaluate_router(BFSRouter(view), pairs)
        assert metrics.delivery_rate >= 0.95 * oracle.delivery_rate

    def test_broadcast_covers_the_enabled_component(self, story):
        result, rng = story
        view = FaultModelView.from_regions(result)
        root, _ = view.random_enabled_pair(rng)
        b = broadcast(view, root)
        # Sparse faults keep the enabled subgraph connected.
        assert b.coverage == 1.0
        assert b.steps <= MESH.diameter + 4

    def test_wormhole_transport_end_to_end(self, story):
        result, rng = story
        view = FaultModelView.from_regions(result)
        router = WallRouter(view)
        pairs = sample_pairs(view, 40, rng)
        worms, unroutable = source_routed_traffic(
            router, pairs, rng, packet_length=3, injection_rate=0.3
        )
        net = WormholeNetwork(MESH, num_vcs=2, buffer_depth=2, watchdog=3000)
        res = net.run(worms, max_cycles=60_000)
        assert unroutable <= 2
        assert res.delivery_rate > 0.95
        assert not res.deadlocked
