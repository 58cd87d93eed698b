"""Property: the batched traffic engine IS the scalar oracle.

The numpy engine in :mod:`repro.network.batched` routes every packet
once and then arbitrates links per cycle with reverse-write scatters,
tombstoned lanes and compaction.  None of that machinery may be
observable: on any view (blocks or regions, mesh or torus), any fault
workload (uniform or clustered), either routing kernel, any hop budget
and any cycle horizon, the result columns must equal the scalar
reference engine's bit for bit.

A second family pins the kernels to the path routers they vectorize:
single-packet XY traffic agrees with :class:`XYRouter`, and the
rectangle-detour kernel agrees with :class:`FRingRouter` on delivery
and hop count (the kernel drops by hop budget where the router's
seen-set detects a cycle, so drop *reasons* are pinned to the
blocked/budget pair rather than equated).

A third family pins the route step to the oracle packet by packet:
expanding the straight segments ``decide`` returns, hop by hop, must
give the cells, the end and the hop count of stepping ``decide_one``
from the idle state, and the paths checked must pass through every
branch of the detour state machine.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import SafetyDefinition, label_mesh
from repro.faults import FaultSet, clustered
from repro.geometry.cells import CellSet
from repro.mesh import Mesh2D, Torus2D
from repro.network import BatchedNetwork, BatchedTraffic, synthetic_traffic
from repro.routing import DropReason, FaultModelView, FRingRouter, XYRouter
from repro.routing.vectorized import ARRIVED, BLOCKED, BUDGET, make_kernel
from tests.strategies import fault_sets

W = H = 8


@st.composite
def mixed_fault_sets(draw, max_faults=10):
    """Half clustered workloads, half the shared uniform fault sets."""
    if draw(st.booleans()):  # clustered workload
        n = draw(st.integers(0, max_faults))
        seed = draw(st.integers(0, 2**31 - 1))
        return clustered((W, H), n, np.random.default_rng(seed), clusters=2)
    return draw(fault_sets(W, H, max_faults))


def make_view(topo_kind, faults, view_kind, definition=SafetyDefinition.DEF_2B):
    topo = Mesh2D(W, H) if topo_kind == "mesh" else Torus2D(W, H)
    try:
        result = label_mesh(topo, faults, definition)
    except ValueError:
        # Torus unwrap needs one all-safe column and row; dense draws
        # that wrap unsafe nodes all the way around have no planar view
        # (outside the paper's sparse-fault regime) — discard them.
        assume(False)
    if view_kind == "blocks":
        return FaultModelView.from_blocks(result)
    return FaultModelView.from_regions(result)


class TestEngineEquality:
    @given(
        mixed_fault_sets(),
        st.sampled_from(["mesh", "torus"]),
        st.sampled_from(["blocks", "regions"]),
        st.sampled_from(["xy", "detour"]),
        st.sampled_from(list(SafetyDefinition)),
        st.integers(0, 2**31 - 1),
        st.floats(0.25, 8.0),
        st.one_of(st.none(), st.integers(0, 12)),
        st.one_of(st.just(1_000_000), st.integers(1, 40)),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_equals_reference(
        self, faults, topo_kind, view_kind, kernel, definition, seed, rate,
        max_hops, max_cycles,
    ):
        # Small hop budgets end paths with BUDGET; short horizons leave
        # packets stuck mid-segment or waiting to drop.
        view = make_view(topo_kind, faults, view_kind, definition)
        assume(view.num_enabled >= 2)
        traffic = synthetic_traffic(
            view, 250, np.random.default_rng(seed), injection_rate=rate
        )
        fast = BatchedNetwork(view, kernel=kernel, max_hops=max_hops).run(
            traffic, max_cycles
        )
        slow = BatchedNetwork(
            view, kernel=kernel, engine="reference", max_hops=max_hops
        ).run(traffic, max_cycles)
        assert fast.equals(slow), fast.diff_summary(slow)

    @given(
        mixed_fault_sets(),
        st.integers(0, 2**31 - 1),
        st.integers(1, 12),
        st.sampled_from([1, 7, 64, 1 << 14]),
        st.sampled_from(["xy", "detour"]),
    )
    @settings(max_examples=15, deadline=None)
    def test_compaction_invariance(self, faults, seed, frac, chunk, kernel):
        # Neither the compaction threshold nor the route chunk size (how
        # many packets the engine routes at a time) may show.
        view = make_view("mesh", faults, "regions")
        assume(view.num_enabled >= 2)
        traffic = synthetic_traffic(
            view, 250, np.random.default_rng(seed), injection_rate=4.0
        )
        baseline = BatchedNetwork(view, kernel=kernel).run(traffic)
        tweaked = BatchedNetwork(view, kernel=kernel)
        tweaked._COMPACT_FRAC = frac
        tweaked._ROUTE_CHUNK = chunk
        assert tweaked.run(traffic).equals(baseline)


class TestKernelPins:
    @given(mixed_fault_sets(), st.sampled_from(["blocks", "regions"]), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_xy_kernel_matches_xy_router(self, faults, view_kind, seed):
        view = make_view("mesh", faults, view_kind)
        assume(view.num_enabled >= 2)
        rng = np.random.default_rng(seed)
        source, dest = view.random_enabled_pair(rng)
        oracle = XYRouter(view).route(source, dest)
        res = BatchedNetwork(view, kernel="xy").run(
            BatchedTraffic.from_pairs([(source, dest)])
        )
        assert bool(res.delivered_mask[0]) == oracle.delivered
        if oracle.delivered:
            assert int(res.hops[0]) == oracle.hops == oracle.manhattan
            assert int(res.latencies[0]) == oracle.hops  # lone packet
        else:
            assert res.drop_counts() == {"BLOCKED": 1}

    # FRingRouter insists on rectangular obstacles, so the pin runs on
    # the blocks view; regions coverage comes from the engine-equality
    # property above.
    @given(mixed_fault_sets(), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_detour_kernel_matches_fring_router(self, faults, seed):
        view = make_view("mesh", faults, "blocks")
        assume(view.num_enabled >= 2)
        rng = np.random.default_rng(seed)
        source, dest = view.random_enabled_pair(rng)
        oracle = FRingRouter(view).route(source, dest)
        res = BatchedNetwork(view, kernel="detour").run(
            BatchedTraffic.from_pairs([(source, dest)])
        )
        if oracle.delivered and bool(res.delivered_mask[0]):
            assert int(res.hops[0]) == oracle.hops
        if not bool(res.delivered_mask[0]):
            # The kernel has no seen-set; livelock is cut by the hop
            # budget instead of cycle detection.
            reason = DropReason[next(iter(res.drop_counts()))]
            assert reason in (DropReason.BLOCKED, DropReason.BUDGET)

    @given(mixed_fault_sets(), st.sampled_from(["xy", "detour"]), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_latency_bounded_below_by_distance(self, faults, kernel, seed):
        view = make_view("mesh", faults, "regions")
        assume(view.num_enabled >= 2)
        traffic = synthetic_traffic(
            view, 120, np.random.default_rng(seed), injection_rate=2.0
        )
        res = BatchedNetwork(view, kernel=kernel).run(traffic)
        manhattan = np.abs(traffic.sx - traffic.dx) + np.abs(
            traffic.sy - traffic.dy
        )
        mask = res.delivered_mask
        assert (res.hops[mask] >= manhattan[mask]).all()
        lat = res.finish[mask] - res.inject[mask]
        assert (lat >= manhattan[mask]).all()


# ---------------------------------------------------------------------------
# Route step vs decide_one, packet by packet

_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1))  # E, W, N, S


def expand(kern, routes, i):
    """The cells packet ``i`` enters, one per hop of its segments."""
    cells = []
    for s in range(int(routes.ptr[i]), int(routes.ptr[i + 1])):
        cell, d = divmod(int(routes.link[s]), 4)
        x, y = divmod(cell, kern.height)
        assert 0 <= d < 4 and routes.length[s] >= 1
        for _ in range(int(routes.length[s])):
            x, y = x + _STEPS[d][0], y + _STEPS[d][1]
            cells.append((x, y))
    return cells


def lane_kind(kern, x, y, dx, dy, st):
    """Which branch of the detour state machine a hop starts in."""
    on, axis, face, run, rect = st
    if not on:
        if x != dx and y != dy:
            hop_x = (x + (1 if dx > x else -1), y)
            hop_y = (x, y + (1 if dy > y else -1))
            if not kern.enabled[hop_x] and kern.enabled[hop_y]:
                return "idle-along-wall"
        return "idle"
    cross, along = (y, x) if axis == 0 else (x, y)
    if cross != face:
        return "mid-slide"
    if along == run:
        return "at-run-target"
    step = 1 if run > along else -1
    nxt = (x + step, y) if axis == 0 else (x, y + step)
    other = int(kern.rect_grid[nxt])
    if not kern.enabled[nxt] and other >= 0:
        if kern._meets(other, rect):
            return "run-into-overlapping-rectangle"
        return "run-into-another-rectangle"
    return "running"


def walk(kern, source, dest, max_hops, kinds=None):
    """Step ``decide_one`` from the idle state, as the reference engine
    does between contention rounds: ``(cells entered, end)``."""
    (x, y), st, cells = source, kern.idle, []
    while True:
        if (x, y) == dest:
            return cells, ARRIVED
        if len(cells) >= max_hops:
            return cells, BUDGET
        if kinds is not None and st is not None:
            kinds[lane_kind(kern, x, y, *dest, st)] += 1
        nxt, st = kern.decide_one(x, y, *dest, st)
        if nxt is None:
            return cells, BLOCKED
        (x, y) = nxt
        cells.append(nxt)


def assert_routes_are_walks(kern, traffic, max_hops, kinds=None):
    routes = kern.decide(traffic.sx, traffic.sy, traffic.dx, traffic.dy, max_hops)
    assert routes.ptr.size == traffic.sx.size + 1
    for i in range(traffic.sx.size):
        source = (int(traffic.sx[i]), int(traffic.sy[i]))
        dest = (int(traffic.dx[i]), int(traffic.dy[i]))
        cells, end = walk(kern, source, dest, max_hops, kinds)
        where = f"packet {i} {source}->{dest}, max_hops {max_hops}"
        assert expand(kern, routes, i) == cells, where
        assert int(routes.end[i]) == end, where
        assert int(routes.hops[i]) == len(cells), where


class TestRoutes:
    @given(
        mixed_fault_sets(max_faults=14),
        st.sampled_from(["mesh", "torus"]),
        st.sampled_from(["blocks", "regions"]),
        st.sampled_from(["xy", "detour"]),
        st.sampled_from(list(SafetyDefinition)),
        st.integers(0, 2**31 - 1),
        st.one_of(st.none(), st.integers(0, 12)),
    )
    @settings(max_examples=40, deadline=None)
    def test_segments_are_decide_one_hops(
        self, faults, topo_kind, view_kind, kernel, definition, seed, max_hops
    ):
        view = make_view(topo_kind, faults, view_kind, definition)
        assume(view.num_enabled >= 2)
        traffic = synthetic_traffic(
            view, 150, np.random.default_rng(seed), injection_rate=4.0
        )
        if max_hops is None:
            max_hops = BatchedNetwork(view).max_hops
        assert_routes_are_walks(make_kernel(kernel, view), traffic, max_hops)

    # Uniform faults on 8x8 whose Def 2b regions have bounding
    # rectangles close enough for a run to hit a second rectangle.
    CHAIN_FAULTS = [
        (0, 3), (1, 2), (1, 4), (2, 1), (2, 2), (3, 1),
        (4, 5), (4, 7), (5, 7), (6, 5), (6, 7),
    ]

    @pytest.mark.parametrize("view_kind", ["blocks", "regions"])
    def test_every_branch_is_covered(self, view_kind):
        faults = FaultSet.from_coords((W, H), self.CHAIN_FAULTS)
        view = make_view("mesh", faults, view_kind)
        traffic = synthetic_traffic(
            view, 250, np.random.default_rng(8), injection_rate=4.0
        )
        kern = make_kernel("detour", view)
        kinds = Counter()
        assert_routes_are_walks(kern, traffic, BatchedNetwork(view).max_hops, kinds)
        expected = {"idle", "idle-along-wall", "mid-slide", "running", "at-run-target"}
        if view_kind == "regions":
            expected.add("run-into-another-rectangle")
        assert expected <= set(kinds), kinds

    # Hand-built views in which a detour's run meets a second obstacle
    # whose bounding rectangle overlaps the first one's; the kernels
    # refuse that hop.  In "l-shape" the refusal decides the outcome: a
    # nested plan around the L's rectangle would deliver down column 1.
    OVERLAPS = {
        "rectangles": (
            (10, 10),
            [
                [(x, y) for x in (3, 4, 5) for y in (3, 4, 5)],
                [(x, y) for x in (5, 6, 7) for y in (1, 2, 3)],
            ],
            ((1, 4), (9, 4)),
            [(2, 4), (2, 3), (2, 2), (3, 2), (4, 2)],
        ),
        "l-shape": (
            (7, 7),
            [[(3, 3), (4, 3)], [(2, 2), (2, 3), (3, 2), (4, 2)]],
            ((0, 4), (3, 0)),
            [(1, 4), (2, 4), (3, 4), (2, 4)],
        ),
    }

    @pytest.mark.parametrize("case", sorted(OVERLAPS))
    def test_run_into_overlapping_rectangle_is_refused(self, case):
        shape, obstacles, pair, cells = self.OVERLAPS[case]
        obstacles = tuple(CellSet.from_coords(shape, c) for c in obstacles)
        enabled = np.ones(shape, dtype=bool)
        for obs in obstacles:
            enabled &= ~obs.mask
        view = FaultModelView(Mesh2D(*shape), enabled, obstacles)
        kern = make_kernel("detour", view)
        kinds = Counter()
        max_hops = BatchedNetwork(view).max_hops
        assert_routes_are_walks(kern, BatchedTraffic.from_pairs([pair]), max_hops, kinds)
        assert kinds["run-into-overlapping-rectangle"] == 1, kinds
        assert walk(kern, *pair, max_hops) == (cells, BLOCKED)
