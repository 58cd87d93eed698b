"""Batched store-and-forward traffic engine over numpy packet columns.

The scalar :class:`~repro.network.simulator.WormholeNetwork` walks every
flit of every worm in Python each cycle — fine for deadlock demos, far
too slow for million-packet saturation campaigns.  This engine models
the simpler *store-and-forward* discipline the paper's payoff argument
actually needs (one packet = one unit, one hop per cycle, per-link
capacity one) and works in two steps, *route* then *arbitrate*.

**Route.**  A packet's path does not depend on contention: its next hop
is a pure function of its cell, destination and detour state, and the
state changes only when it moves.  So the routing kernel
(:mod:`repro.routing.vectorized`) routes each packet once, in array
form, when admission first reaches its chunk of the inject order.  A
path comes back as a few straight segments plus how it ends: arrival,
``BLOCKED`` before hop *k*, or ``BUDGET`` at ``max_hops``.

**Arbitrate.**  Every in-flight packet is a *lane* of parallel numpy
arrays: the link it proposes next, that link's step per hop, the hops
left in its segment.  One simulated cycle is a few fused array passes:

1. **admit** packets whose inject cycle arrived (bad endpoints drop
   with ``BAD_ENDPOINT``; source == dest delivers locally with zero
   latency),
2. **drop** the packets whose path is used up short of arrival, with
   the path's end as the reason (the cycle counts),
3. **contend**: each directed link carries one packet per cycle.  The
   winner is the *oldest* packet (lowest packet id — ids are assigned
   in inject order).  Scattering lane indices into a per-link array in
   *reverse* id order leaves the lowest (= oldest) index in place,
   which is exactly that age priority; losers stall,
4. **move** winners one hop along their segment, load the next segment
   of those that finished one, and retire arrivals
   (``finish = cycle + 1``).

A lane hops or stalls in every cycle from its admission on, so hop and
stall counts follow from the path and the retire cycle.

Determinism
-----------
Lanes are kept sorted by packet id, paths are independent of
contention, and contention is resolved by first occurrence in id order
— so a run is a deterministic function of ``(view, kernel, traffic,
max_hops, max_cycles)``, independent of chunking or compaction.
``engine="reference"`` replays the identical schedule with scalar
Python loops, deciding every packet's hop every cycle with the kernel's
``decide_one`` (the oracle); property tests pin the two bit-for-bit.

Idle gaps with nothing in flight are skipped by fast-forwarding the
clock to the next injection, so low injection rates cost nothing.
Node buffering is unbounded (a store-and-forward simplification: only
links contend, packets never drop for queue space).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.errors import RoutingError
from repro.obs.metrics import nearest_rank
from repro.routing.base import FaultModelView, hop_budget
from repro.routing.packet import DropReason
from repro.routing.vectorized import ARRIVED, BLOCKED, BUDGET, TrafficKernel, make_kernel

__all__ = [
    "BatchedNetwork",
    "BatchedResult",
    "STATUS_NAMES",
]

# Packet status codes (result column ``status``).
_PENDING = np.int8(0)
_ACTIVE = np.int8(1)
_DELIVERED = np.int8(2)
_DROPPED = np.int8(3)
_STUCK = np.int8(4)

STATUS_NAMES = ("pending", "active", "delivered", "dropped", "stuck")

# Drop reason codes (result column ``reason``) — index into _REASONS.
_R_NONE = np.int8(0)
# A path's end code is its drop reason (``ARRIVED`` is ``_R_NONE``).
_R_BLOCKED = np.int8(BLOCKED)
_R_BUDGET = np.int8(BUDGET)
_R_BAD_ENDPOINT = np.int8(3)
_REASONS = (
    DropReason.NONE,
    DropReason.BLOCKED,
    DropReason.BUDGET,
    DropReason.BAD_ENDPOINT,
)

def _percentile(values: np.ndarray, q: float) -> float:
    """Nearest-rank ``q``-quantile of a latency column; ``nan`` when empty."""
    if values.size == 0:
        return float("nan")
    return float(nearest_rank(np.sort(values), q))


@dataclass
class BatchedResult:
    """Per-packet outcome columns of one traffic run (id-indexed)."""

    sx: np.ndarray
    sy: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    inject: np.ndarray
    start: np.ndarray  # admission cycle, -1 if never admitted
    finish: np.ndarray  # delivery cycle, -1 if not delivered
    hops: np.ndarray
    stalls: np.ndarray
    status: np.ndarray  # STATUS_NAMES codes
    reason: np.ndarray  # DropReason codes (see _REASONS)
    cycles: int
    engine: str
    kernel: str

    # -- counts --------------------------------------------------------------

    @property
    def num_packets(self) -> int:
        return int(self.status.size)

    @property
    def delivered_mask(self) -> np.ndarray:
        return self.status == _DELIVERED

    @property
    def num_delivered(self) -> int:
        return int(self.delivered_mask.sum())

    @property
    def num_dropped(self) -> int:
        return int((self.status == _DROPPED).sum())

    @property
    def num_stuck(self) -> int:
        """Packets still pending/in flight when the cycle horizon hit."""
        return int((self.status == _STUCK).sum())

    def drop_counts(self) -> Dict[str, int]:
        """Dropped-packet counts keyed by :class:`DropReason` name."""
        out: Dict[str, int] = {}
        dropped = self.reason[self.status == _DROPPED]
        for code, count in zip(*np.unique(dropped, return_counts=True)):
            out[_REASONS[int(code)].name] = int(count)
        return out

    # -- rates and latency ---------------------------------------------------

    @property
    def delivery_rate(self) -> float:
        """Delivered fraction; an empty run is vacuously ``1.0``.

        The convention matches
        :class:`~repro.network.simulator.NetworkResult`: with no offered
        packets nothing was lost, so the rate reports success.
        """
        n = self.num_packets
        return self.num_delivered / n if n else 1.0

    @property
    def throughput(self) -> float:
        """Delivered packets per simulated cycle (0.0 for idle runs)."""
        return self.num_delivered / self.cycles if self.cycles else 0.0

    @property
    def latencies(self) -> np.ndarray:
        """Delivered-packet latency vector (``finish - inject``), cycles."""
        m = self.delivered_mask
        return (self.finish[m] - self.inject[m]).astype(np.int64)

    @property
    def mean_latency(self) -> float:
        """Mean delivered latency; ``nan`` when nothing was delivered."""
        lat = self.latencies
        return float(lat.mean()) if lat.size else float("nan")

    @property
    def p50_latency(self) -> float:
        return _percentile(self.latencies, 0.50)

    @property
    def p95_latency(self) -> float:
        return _percentile(self.latencies, 0.95)

    @property
    def p99_latency(self) -> float:
        return _percentile(self.latencies, 0.99)

    # -- comparison ----------------------------------------------------------

    def equals(self, other: "BatchedResult") -> bool:
        """Bit-for-bit outcome equality (used to pin engines)."""
        return (
            self.cycles == other.cycles
            and bool(np.array_equal(self.status, other.status))
            and bool(np.array_equal(self.reason, other.reason))
            and bool(np.array_equal(self.start, other.start))
            and bool(np.array_equal(self.finish, other.finish))
            and bool(np.array_equal(self.hops, other.hops))
            and bool(np.array_equal(self.stalls, other.stalls))
        )

    def diff_summary(self, other: "BatchedResult") -> str:
        """Human-readable first divergence, for test failure messages."""
        for name in ("status", "reason", "start", "finish", "hops", "stalls"):
            a, b = getattr(self, name), getattr(other, name)
            if not np.array_equal(a, b):
                bad = int(np.flatnonzero(a != b)[0])
                return (
                    f"column {name!r} first differs at packet {bad}: "
                    f"{a[bad]!r} != {b[bad]!r}"
                )
        if self.cycles != other.cycles:
            return f"cycles differ: {self.cycles} != {other.cycles}"
        return "results equal"


_LANE_COLS = ("cid", "link", "step", "rem", "seg", "hi")


class _Lanes:
    """The in-flight packets of a batched run, and the path rows they read.

    One *lane* per packet: parallel int64 arrays in packet-id order of
    the packet id (``cid``), the link it proposes next, that link's step
    per hop, the hops left in its segment (``rem``), and its next and
    end row in the segment store (``seg``, ``hi``).  A retired lane
    proposes the ``sink`` link, steps 0 and holds ``rem = -1`` until a
    compaction sweeps it out; a lane whose path is used up short of its
    destination holds ``rem = 0`` until the engine drops it.

    The store holds each segment's first link, step per hop and length:
    the rows live lanes have still to read, then the rows of the newest
    routed chunk, then one empty sentinel row for pathless packets.
    """

    def __init__(self, sink: int, height: int):
        self.sink = sink
        self.dead = 0
        self._link_step = np.array([4 * height, -4 * height, 4, -4], dtype=np.int64)
        self._store = (np.array([sink]), np.zeros(1, np.int64), np.zeros(1, np.int64))
        self._queue, self._queued = (), 0
        self.clear()

    @property
    def live(self) -> int:
        return self.cid.size - self.dead

    def clear(self) -> None:
        for name in _LANE_COLS:
            setattr(self, name, np.empty(0, dtype=np.int64))
        self.dead = 0

    def select(self, keep) -> None:
        """Keep (or reorder) lanes by a mask or an index array."""
        for name in _LANE_COLS:
            setattr(self, name, getattr(self, name)[keep])
        self.dead = int(np.count_nonzero(self.rem < 0))

    def load(self, ids, routes) -> None:
        """Take the routes of packets ``ids`` (inject order) into the
        store and queue their lanes for admission."""
        live = np.flatnonzero(self.rem >= 0)
        seg = self.seg[live]
        cnt = self.hi[live] - seg
        first = np.cumsum(cnt) - cnt
        carry = np.repeat(seg - first, cnt) + np.arange(cnt.sum())
        self.seg[live] = first
        self.hi[live] = first + cnt
        s_link, s_step, s_len = self._store
        steps = self._link_step[routes.link & 3]
        self._store = s_link, s_step, s_len = (
            np.concatenate((s_link[carry], routes.link, [self.sink])),
            np.concatenate((s_step[carry], steps, [0])),
            np.concatenate((s_len[carry], routes.length, [0])),
        )
        lo = routes.ptr[:-1] + carry.size
        hi = routes.ptr[1:] + carry.size
        row = np.where(routes.hops > 0, lo, s_len.size - 1)
        self._queue = (
            ids, s_link[row], s_step[row], s_len[row], np.where(routes.hops > 0, lo + 1, hi), hi
        )
        self._queued = 0

    def admit(self, m: int) -> int:
        """Append the next ``m`` queued lanes; returns how many of them
        are pathless."""
        a = self._queued
        b = self._queued = a + m
        if not m:
            return 0
        for name, col in zip(_LANE_COLS, self._queue):
            setattr(self, name, np.concatenate((getattr(self, name), col[a:b])))
        return int(np.count_nonzero(self._queue[3][a:b] == 0))

    def next_segment(self, fin):
        """Lanes ``fin`` finished a segment: load their next one.
        Returns the lanes whose path is used up."""
        s = self.seg[fin]
        more = s < self.hi[fin]
        nxt, s = fin[more], s[more]
        s_link, s_step, s_len = self._store
        self.link[nxt], self.step[nxt], self.rem[nxt] = s_link[s], s_step[s], s_len[s]
        self.seg[nxt] = s + 1
        return fin[~more]

    def kill(self, lane) -> None:
        self.link[lane] = self.sink
        self.step[lane] = 0
        self.rem[lane] = -1
        self.dead += lane.size

    def hops_left(self):
        """Live lanes' packet ids and the hops left on their paths."""
        live = np.flatnonzero(self.rem >= 0)
        pos = np.concatenate(([0], np.cumsum(self._store[2])))
        seg, hi = self.seg[live], self.hi[live]
        return self.cid[live], self.rem[live] + pos[hi] - pos[seg]


class BatchedNetwork:
    """Store-and-forward traffic simulator with batched numpy advancement.

    Parameters
    ----------
    view:
        The fault-model view packets route over.
    kernel:
        ``"xy"``, ``"detour"``, or a :class:`TrafficKernel` instance.
    engine:
        ``"batched"`` (numpy columns, the default) or ``"reference"``
        (scalar Python oracle with identical semantics).
    max_hops:
        Per-packet hop budget; defaults to the path routers' budget,
        :func:`~repro.routing.base.hop_budget`.
    """

    def __init__(
        self,
        view: FaultModelView,
        kernel="detour",
        engine: str = "batched",
        max_hops: Optional[int] = None,
    ):
        if engine not in ("batched", "reference"):
            raise RoutingError(f"unknown engine {engine!r}")
        self.view = view
        # Build the run-length tables now, so a run times routing alone.
        self.kernel: TrafficKernel = make_kernel(kernel, view).prepare()
        self.engine = engine
        self.max_hops = max_hops if max_hops is not None else hop_budget(view.topology)

    def run(self, traffic, max_cycles: int = 1_000_000, telemetry=None) -> BatchedResult:
        """Simulate ``traffic`` to completion or the ``max_cycles`` horizon.

        ``traffic`` is any object with int array attributes
        ``sx, sy, dx, dy, inject`` (see
        :class:`~repro.network.traffic.BatchedTraffic`).  Packets alive
        at the horizon are reported as ``stuck``.
        """
        if self.engine == "reference":
            return self._run_reference(traffic, max_cycles)
        return self._run_batched(traffic, max_cycles, telemetry)

    # -- shared setup --------------------------------------------------------

    def _columns(self, traffic):
        sx = np.asarray(traffic.sx, dtype=np.int32)
        sy = np.asarray(traffic.sy, dtype=np.int32)
        dx = np.asarray(traffic.dx, dtype=np.int32)
        dy = np.asarray(traffic.dy, dtype=np.int32)
        inject = np.asarray(traffic.inject, dtype=np.int64)
        if not (sx.shape == sy.shape == dx.shape == dy.shape == inject.shape):
            raise RoutingError("traffic columns must share one shape")
        return sx, sy, dx, dy, inject

    def _result(self, cols, start, finish, hops, stalls, status, reason, cycle):
        sx, sy, dx, dy, inject = cols
        status = status.copy()
        status[(status == _PENDING) | (status == _ACTIVE)] = _STUCK
        return BatchedResult(
            sx=sx,
            sy=sy,
            dx=dx,
            dy=dy,
            inject=inject,
            start=start,
            finish=finish,
            hops=hops,
            stalls=stalls,
            status=status,
            reason=reason,
            cycles=int(cycle),
            engine=self.engine,
            kernel=self.kernel.name,
        )

    # -- batched numpy engine ------------------------------------------------

    # Compact dead lanes away once they exceed this fraction of lanes.
    _COMPACT_FRAC = 8
    # Packets routed at a time, in inject order: bounds the memory the
    # route step and the held routes take on a long campaign.
    _ROUTE_CHUNK = 1 << 14

    def _run_batched(self, traffic, max_cycles: int, telemetry) -> BatchedResult:
        cols = self._columns(traffic)
        sx, sy, dx, dy, inject = cols
        n = sx.size
        kern = self.kernel
        height = kern.height
        lanes = _Lanes(sink=kern.width * height * 4, height=height)

        status = np.full(n, _PENDING, dtype=np.int8)
        reason = np.full(n, _R_NONE, dtype=np.int8)
        start = np.full(n, -1, dtype=np.int64)
        finish = np.full(n, -1, dtype=np.int64)
        hops = np.zeros(n, dtype=np.int64)
        stalls = np.zeros(n, dtype=np.int64)
        plen = np.zeros(n, dtype=np.int64)  # path hops, once routed
        pend = np.zeros(n, dtype=np.int8)  # path end = drop reason

        order = np.argsort(inject, kind="stable")
        inj_sorted = inject[order]
        # Contention needs lanes ascending by id.  Admitting in inject
        # order keeps them so unless custom traffic injects out of id
        # order; only then may an admission need a re-sort.
        out_of_order = bool(np.any(np.diff(order) < 0))
        ok_ep = kern.enabled[sx, sy] & kern.enabled[dx, dy]
        flies = ok_ep & ((sx != dx) | (sy != dy))
        fly_sorted = flies[order]
        fly_at = np.concatenate(([0], np.cumsum(fly_sorted)))
        ptr = routed = 0
        cycle = 0
        npending = 0

        hist_occ = hist_lat = None
        if telemetry is not None:
            hist_occ = telemetry.histogram("link_occupancy")
            hist_lat = telemetry.histogram("packet_latency_cycles")

        # Contention scratch: ``winner[link]`` holds the lowest lane
        # proposing that link this cycle.  Writing lane indices in
        # *reverse* order makes the last (= lowest-lane) write win, with
        # no sort and no per-cycle reset — every link read back was
        # freshly written this cycle.
        winner = np.zeros(lanes.sink + 1, dtype=np.int64)
        iota = np.empty(0, dtype=np.int64)

        def retire(lane, state, why, done):
            """Record lanes ending at cycle ``done``, then kill them."""
            rows = lanes.cid[lane]
            status[rows] = state
            reason[rows] = why
            hops[rows] = plen[rows]
            # Every cycle from admission on, a lane hops or stalls.
            stalls[rows] = done - np.maximum(inject[rows], 0) - plen[rows]
            lanes.kill(lane)
            return rows

        while cycle < max_cycles:
            # 1. admit, routing the next chunk of packets when needed
            if ptr < n:
                k = int(np.searchsorted(inj_sorted, cycle, side="right"))
                if k > ptr:
                    while ptr < k:
                        if ptr == routed:
                            routed = min(n, ptr + self._ROUTE_CHUNK)
                            ids = order[ptr:routed][fly_sorted[ptr:routed]]
                            routes = kern.decide(
                                sx[ids], sy[ids], dx[ids], dy[ids], self.max_hops
                            )
                            plen[ids], pend[ids] = routes.hops, routes.end
                            lanes.load(ids, routes)
                        e = min(k, routed)
                        npending += lanes.admit(int(fly_at[e] - fly_at[ptr]))
                        ptr = e
                    if out_of_order and np.any(np.diff(lanes.cid) < 0):
                        lanes.select(np.argsort(lanes.cid, kind="stable"))
                    if iota.size < lanes.cid.size:
                        iota = np.arange(lanes.cid.size, dtype=np.int64)
            if lanes.live == 0:
                if lanes.cid.size:
                    lanes.clear()  # everything in flight retired
                if ptr >= n:
                    break
                cycle = int(inj_sorted[ptr])
                continue

            # 2. drop the lanes whose path is used up short of arrival
            # (BLOCKED or BUDGET); the cycle counts.
            if npending:
                gone = np.flatnonzero(lanes.rem == 0)
                retire(gone, _DROPPED, pend[lanes.cid[gone]], cycle)
                npending = 0
                if lanes.live == 0:
                    cycle += 1
                    continue

            # 3. contend: one packet per directed link, oldest id wins.
            # Lanes are ascending by id, so lane order is age order; the
            # reverse-write trick keeps the lowest lane per link.
            link, rem = lanes.link, lanes.rem
            idx = iota[: link.size]
            winner[link[::-1]] = idx[::-1]
            win = winner[link] == idx
            if hist_occ is not None:
                _, counts = np.unique(link[link < lanes.sink], return_counts=True)
                hist_occ.observe_many(counts)

            # 4. move winners one hop along their segment; a finished
            # segment loads the next one or ends the path.
            np.add(link, lanes.step, out=link, where=win)
            np.subtract(rem, 1, out=rem, where=win)
            fin = np.flatnonzero(rem == 0)
            if fin.size:
                fin = lanes.next_segment(fin)
                arrived = fin[pend[lanes.cid[fin]] == ARRIVED]
                if arrived.size:
                    finish[retire(arrived, _DELIVERED, _R_NONE, cycle + 1)] = cycle + 1
                npending += fin.size - arrived.size

            if lanes.dead * self._COMPACT_FRAC > lanes.cid.size:
                lanes.select(lanes.rem >= 0)

            cycle += 1
            if lanes.live == 0 and ptr >= n:
                break

        # Admitted packets that never flew; lanes stuck at the horizon.
        seen = order[:ptr]
        bad = seen[~ok_ep[seen]]
        status[bad] = _DROPPED
        reason[bad] = _R_BAD_ENDPOINT
        good = seen[ok_ep[seen]]
        start[good] = inject[good]
        local = good[~flies[good]]
        status[local] = _DELIVERED
        finish[local] = inject[local]
        rows, left = lanes.hops_left()
        hops[rows] = plen[rows] - left
        stalls[rows] = cycle - np.maximum(inject[rows], 0) - hops[rows]

        result = self._result(cols, start, finish, hops, stalls, status, reason, cycle)
        if hist_lat is not None:
            hist_lat.observe_many(result.latencies)
        return result

    # -- scalar reference oracle ---------------------------------------------

    def _run_reference(self, traffic, max_cycles: int) -> BatchedResult:
        cols = self._columns(traffic)
        sx, sy, dx, dy, inject = cols
        n = sx.size
        kern = self.kernel
        enabled = kern.enabled

        px = sx.astype(int).tolist()
        py = sy.astype(int).tolist()
        tdx = dx.astype(int).tolist()
        tdy = dy.astype(int).tolist()
        status = np.full(n, _PENDING, dtype=np.int8)
        reason = np.full(n, _R_NONE, dtype=np.int8)
        start = np.full(n, -1, dtype=np.int64)
        finish = np.full(n, -1, dtype=np.int64)
        hops = np.zeros(n, dtype=np.int64)
        stalls = np.zeros(n, dtype=np.int64)
        st = [kern.idle] * n

        order = np.argsort(inject, kind="stable")
        order_list = order.astype(int).tolist()
        inj_sorted = inject[order].astype(int).tolist()
        ptr = 0
        act: list = []
        cycle = 0

        while cycle < max_cycles:
            admitted = False
            while ptr < n and inj_sorted[ptr] <= cycle:
                i = order_list[ptr]
                ptr += 1
                if not (
                    enabled[sx[i], sy[i]] and enabled[tdx[i], tdy[i]]
                ):
                    status[i] = _DROPPED
                    reason[i] = _R_BAD_ENDPOINT
                    continue
                start[i] = inject[i]
                if px[i] == tdx[i] and py[i] == tdy[i]:
                    status[i] = _DELIVERED
                    finish[i] = inject[i]
                    continue
                status[i] = _ACTIVE
                act.append(i)
                admitted = True
            if admitted:
                act.sort()
            if not act:
                if ptr >= n:
                    break
                cycle = inj_sorted[ptr]
                continue

            survivors = []
            for i in act:
                if hops[i] >= self.max_hops:
                    status[i] = _DROPPED
                    reason[i] = _R_BUDGET
                else:
                    survivors.append(i)
            act = survivors
            if not act:
                cycle += 1  # a budget drop uses up its cycle, as a blocked one does
                continue

            proposals = []
            for i in act:
                nxt, new_st = kern.decide_one(px[i], py[i], tdx[i], tdy[i], st[i])
                if nxt is None:
                    status[i] = _DROPPED
                    reason[i] = _R_BLOCKED
                else:
                    proposals.append((i, nxt, new_st))

            taken = set()
            new_act = []
            for i, (nx_, ny_), new_st in proposals:
                if nx_ > px[i]:
                    dirc = 0
                elif nx_ < px[i]:
                    dirc = 1
                elif ny_ > py[i]:
                    dirc = 2
                else:
                    dirc = 3
                link = (px[i] * kern.height + py[i]) * 4 + dirc
                if link in taken:
                    stalls[i] += 1
                    new_act.append(i)
                    continue
                taken.add(link)
                px[i] = nx_
                py[i] = ny_
                hops[i] += 1
                st[i] = new_st
                if nx_ == tdx[i] and ny_ == tdy[i]:
                    status[i] = _DELIVERED
                    finish[i] = cycle + 1
                else:
                    new_act.append(i)
            act = new_act
            cycle += 1
            if not act and ptr >= n:
                break

        return self._result(cols, start, finish, hops, stalls, status, reason, cycle)
