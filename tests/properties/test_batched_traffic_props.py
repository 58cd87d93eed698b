"""Property: the batched traffic engine IS the scalar oracle.

The numpy engine in :mod:`repro.network.batched` advances every
in-flight packet per cycle with fused array passes, tombstoned lanes
and reverse-write link arbitration.  None of that machinery may be
observable: on any view (blocks or regions, mesh or torus), any fault
workload (uniform or clustered), and either routing kernel, the result
columns must equal the scalar reference engine's bit for bit.

A second family pins the kernels to the path routers they vectorize:
single-packet XY traffic agrees with :class:`XYRouter`, and the
rectangle-detour kernel agrees with :class:`FRingRouter` on delivery
and hop count (the kernel drops by hop budget where the router's
seen-set detects a cycle, so drop *reasons* are pinned to the
blocked/budget pair rather than equated).

A third family pins the detour kernel's two decision paths to each
other lane by lane: ``DetourKernel.decide`` (full-width greedy pass,
then the leftovers through ``decide_one`` or the vector replan loop)
must agree with ``decide_one`` on every lane's proposal, blocked flag
and committed state, for inputs snapshotted from running engines and
states built by ``_plan_one``, with the crossover between the two
leftover paths forced to both extremes.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import SafetyDefinition, label_mesh
from repro.faults import FaultSet, clustered
from repro.mesh import Mesh2D, Torus2D
from repro.network import BatchedNetwork, BatchedTraffic, synthetic_traffic
from repro.routing import DropReason, FaultModelView, FRingRouter, XYRouter
from repro.routing.vectorized import DetourKernel, DetourState
from tests.strategies import fault_sets

W = H = 8

# Leftover-lane crossovers the detour kernel must be indifferent to:
# every leftover through the vector replan loop, the default, and every
# leftover through ``decide_one``.
CROSSOVERS = (0, DetourKernel._SCALAR_MAX, 1 << 62)


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
        st.sampled_from(CROSSOVERS),
    )
    @settings(max_examples=60, deadline=None)
    def test_batched_equals_reference(
        self, faults, topo_kind, view_kind, kernel, definition, seed, rate, crossover
    ):
        view = make_view(topo_kind, faults, view_kind, definition)
        assume(view.num_enabled >= 2)
        traffic = synthetic_traffic(
            view, 250, np.random.default_rng(seed), injection_rate=rate
        )
        batched = BatchedNetwork(view, kernel=kernel)
        batched.kernel._SCALAR_MAX = crossover
        fast = batched.run(traffic)
        slow = BatchedNetwork(view, kernel=kernel, engine="reference").run(
            traffic
        )
        assert fast.equals(slow), fast.diff_summary(slow)

    @given(mixed_fault_sets(), st.integers(0, 2**31 - 1), st.integers(1, 12))
    @settings(max_examples=15, deadline=None)
    def test_compaction_invariance(self, faults, seed, frac):
        view = make_view("mesh", faults, "regions")
        assume(view.num_enabled >= 2)
        traffic = synthetic_traffic(
            view, 250, np.random.default_rng(seed), injection_rate=4.0
        )
        baseline = BatchedNetwork(view).run(traffic)
        tweaked = BatchedNetwork(view)
        tweaked._COMPACT_FRAC = frac
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
# DetourKernel.decide vs decide_one, lane by lane


def lane_state(state, i):
    return (
        bool(state.on[i]),
        int(state.axis[i]),
        int(state.face[i]),
        int(state.run[i]),
        int(state.rect[i]),
    )


def lane_kind(kern, x, y, dx, dy, st):
    """Which branch of the detour state machine a lane starts in."""
    on, axis, face, run, rect = st
    if (x, y) == (dx, dy):
        return "at-destination"
    if not on:
        return "idle"
    cross, along = (y, x) if axis == 0 else (x, y)
    if cross != face:
        return "mid-slide"
    if along == run:
        return "at-run-target"
    step = 1 if run > along else -1
    nxt = (x + step, y) if axis == 0 else (x, y + step)
    other = int(kern.rect_grid[nxt])
    if not kern.enabled[nxt] and other >= 0 and not kern.isect[other, rect]:
        return "run-into-another-rectangle"
    return "running"


def idle_normal(st):
    # Off-detour lanes never read axis/face/run/rect; compare them as idle.
    return st if st[0] else (False, 0, 0, 0, -1)


def assert_lanes_agree(kern, snap, crossover) -> Counter:
    """``decide`` at ``crossover`` equals ``decide_one`` on every lane."""
    px, py, dx, dy, state = snap
    before = state.select(np.arange(px.size))
    kern._SCALAR_MAX = crossover
    nx, ny, blocked, changes = kern.decide(px, py, dx, dy, state)
    for col in ("on", "axis", "face", "run", "rect"):  # read-only input
        assert np.array_equal(getattr(state, col), getattr(before, col))
    committed = {}
    if changes is not None:
        rows, *cols = changes
        assert np.unique(rows).size == rows.size
        for j, lane in enumerate(rows.tolist()):
            committed[lane] = tuple(c[j].item() for c in cols)
    kinds = Counter()
    for i in range(px.size):
        lane = (int(px[i]), int(py[i]), int(dx[i]), int(dy[i]))
        st_i = lane_state(state, i)
        kinds[lane_kind(kern, *lane, st_i)] += 1
        nxt, new = kern.decide_one(*lane, st_i)
        where = f"lane {i} {lane} {st_i} at crossover {crossover}"
        assert bool(blocked[i]) == (nxt is None), where
        if nxt is None:
            continue  # a blocked lane drops; its state is never committed
        assert (int(nx[i]), int(ny[i])) == nxt, where
        assert idle_normal(committed.get(i, st_i)) == idle_normal(new), where
    return kinds


def engine_snapshots(view, traffic):
    """Every ``decide`` input a batched detour run hands its kernel."""
    net = BatchedNetwork(view, kernel="detour")
    kern = net.kernel
    real = kern.decide
    snaps = []

    def record(px, py, dx, dy, state):
        lanes = np.arange(px.size)
        snaps.append(
            (px.copy(), py.copy(), dx.copy(), dy.copy(), state.select(lanes))
        )
        return real(px, py, dx, dy, state)

    kern.decide = record
    net.run(traffic)
    del kern.decide
    return kern, snaps


def planned_lanes(kern, rng, dests_per_cell=4):
    """Lanes holding the fresh ``_plan_one`` detour that ``decide_one``
    replans into when a greedy hop hits a rectangle: every enabled cell
    next to a disabled rectangle cell, toward random destinations past
    that cell."""
    enabled = np.argwhere(kern.enabled)
    walls = np.argwhere(~kern.enabled & (kern.rect_grid >= 0))
    rows = []
    for x, y in walls.tolist():
        rid = int(kern.rect_grid[x, y])
        for ax, ay in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if not (0 <= ax < kern.width and 0 <= ay < kern.height):
                continue
            if not kern.enabled[ax, ay]:
                continue
            picks = enabled[rng.integers(0, len(enabled), dests_per_cell)]
            for bx, by in picks.tolist():
                # The wall cell must be the greedy hop toward (bx, by).
                if ay == y and (bx - ax) * (x - ax) <= 0:
                    continue
                if ax == x and (by - ay) * (y - ay) <= 0:
                    continue
                plan = kern._plan_one(ax, ay, bx, by, x, y, rid)
                if plan is not None:
                    rows.append((ax, ay, bx, by) + plan)
    if not rows:
        return None
    cols = list(zip(*rows))
    state = DetourState(
        on=np.array(cols[4], dtype=bool),
        axis=np.array(cols[5], dtype=np.int8),
        face=np.array(cols[6], dtype=np.int32),
        run=np.array(cols[7], dtype=np.int32),
        rect=np.array(cols[8], dtype=np.int32),
    )
    return tuple(np.array(c, dtype=np.int32) for c in cols[:4]) + (state,)


class TestDetourLanes:
    @given(
        mixed_fault_sets(max_faults=14),
        st.sampled_from(["blocks", "regions"]),
        st.sampled_from(list(SafetyDefinition)),
        st.integers(0, 2**31 - 1),
        st.floats(1.0, 8.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_decide_matches_decide_one_per_lane(
        self, faults, view_kind, definition, seed, rate
    ):
        view = make_view("mesh", faults, view_kind, definition)
        assume(view.num_enabled >= 2)
        rng = np.random.default_rng(seed)
        traffic = synthetic_traffic(view, 150, rng, injection_rate=rate)
        kern, snaps = engine_snapshots(view, traffic)
        planned = planned_lanes(kern, rng)
        if planned is not None:
            snaps.append(planned)
        for snap in snaps:
            for crossover in CROSSOVERS:
                assert_lanes_agree(kern, snap, crossover)

    # Uniform faults on 8x8 whose Def 2b regions have bounding
    # rectangles close enough for a run to hit a second rectangle.
    CHAIN_FAULTS = [
        (0, 3), (1, 2), (1, 4), (2, 1), (2, 2), (3, 1),
        (4, 5), (4, 7), (5, 7), (6, 5), (6, 7),
    ]

    @pytest.mark.parametrize("view_kind", ["blocks", "regions"])
    def test_every_lane_kind_is_covered(self, view_kind):
        faults = FaultSet.from_coords((W, H), self.CHAIN_FAULTS)
        view = make_view("mesh", faults, view_kind)
        traffic = synthetic_traffic(
            view, 250, np.random.default_rng(8), injection_rate=4.0
        )
        kern, snaps = engine_snapshots(view, traffic)
        snaps.append(planned_lanes(kern, np.random.default_rng(8)))
        kinds = Counter()
        for snap in snaps:
            for crossover in CROSSOVERS:
                kinds.update(assert_lanes_agree(kern, snap, crossover))
        expected = {"idle", "mid-slide", "at-run-target", "at-destination"}
        if view_kind == "regions":
            expected.add("run-into-another-rectangle")
        assert expected <= set(kinds), kinds
