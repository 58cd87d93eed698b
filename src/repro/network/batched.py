"""Batched store-and-forward traffic engine over numpy packet columns.

The scalar :class:`~repro.network.simulator.WormholeNetwork` walks every
flit of every worm in Python each cycle — fine for deadlock demos, far
too slow for million-packet saturation campaigns.  This engine models
the simpler *store-and-forward* discipline the paper's payoff argument
actually needs (one packet = one unit, one hop per cycle, per-link
capacity one) and keeps **every in-flight packet in parallel numpy
arrays**: position, destination, detour state, inject/start/finish
cycle, hop and stall counters.  One simulated cycle is one fused array
pass:

1. **admit** packets whose inject cycle arrived (bad endpoints drop
   with ``BAD_ENDPOINT``; source == dest delivers locally with zero
   latency),
2. **budget-check** (``hops >= max_hops`` drops with ``BUDGET``),
3. **decide** next hops for the whole batch through a vectorized
   routing kernel (:mod:`repro.routing.vectorized`); kernel-blocked
   packets drop with ``BLOCKED``,
4. **contend**: each directed link carries one packet per cycle.  The
   winner is the *oldest* packet (lowest packet id — ids are assigned
   in inject order).  Scattering proposal indices into a per-link
   occupancy array in *reverse* id order leaves the lowest (= oldest)
   index in place, which is exactly that age priority; losers stall,
5. **move** winners, committing detour state only for packets that
   moved, and retire arrivals (``finish = cycle + 1``).

Determinism
-----------
The active array is kept sorted by packet id, decisions are pure
functions of committed state, and contention is resolved by first
occurrence in id order — so a run is a deterministic function of
``(view, kernel, traffic, max_cycles)``, independent of batch size or
chunking.  ``engine="reference"`` replays the identical schedule with
scalar Python loops (the oracle); property tests pin the two
bit-for-bit.

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
from repro.routing.base import FaultModelView
from repro.routing.packet import DropReason
from repro.routing.vectorized import TrafficKernel, make_kernel

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
_R_BLOCKED = np.int8(1)
_R_BUDGET = np.int8(2)
_R_BAD_ENDPOINT = np.int8(3)
_REASONS = (
    DropReason.NONE,
    DropReason.BLOCKED,
    DropReason.BUDGET,
    DropReason.BAD_ENDPOINT,
)

# Direction code per hop delta: E=0 (x+1), W=1 (x-1), N=2 (y+1),
# S=3 (y-1); indexed by (ddx + 2*ddy + 2).  Index 2 is the zero delta
# (tombstoned lanes), mapped arbitrarily — their link is faked anyway.
_DIR_LUT = np.array([3, 1, 2, 0, 2], dtype=np.int32)


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
        Per-packet hop budget; defaults to the :class:`Router` budget
        ``4 * (diameter + 1) + 16``.
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
        self.kernel: TrafficKernel = make_kernel(kernel, view)
        self.engine = engine
        self.max_hops = (
            max_hops
            if max_hops is not None
            else 4 * (view.topology.diameter + 1) + 16
        )

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

    def _run_batched(self, traffic, max_cycles: int, telemetry) -> BatchedResult:
        cols = self._columns(traffic)
        sx, sy, dx, dy, inject = cols
        n = sx.size
        kern = self.kernel
        enabled = kern.enabled
        height = kern.height
        nlinks = kern.width * height * 4

        status = np.full(n, _PENDING, dtype=np.int8)
        reason = np.full(n, _R_NONE, dtype=np.int8)
        start = np.full(n, -1, dtype=np.int64)
        finish = np.full(n, -1, dtype=np.int64)
        hops = np.zeros(n, dtype=np.int64)
        stalls = np.zeros(n, dtype=np.int64)

        order = np.argsort(inject, kind="stable")
        inj_sorted = inject[order]
        # Contention needs lanes ascending by id.  Admitting in inject
        # order keeps them so unless custom traffic injects out of id
        # order; only then may an admission need a re-sort.
        out_of_order = bool(np.any(np.diff(order) < 0))
        ptr = 0
        cycle = 0
        budget_floor = float("inf")

        # In-flight packets live in compact *lanes* — parallel arrays
        # indexed by lane, not packet id.  Retired lanes are tombstoned
        # (``alive`` False) and ride along, excluded from contention by
        # a unique fake link id, until the dead fraction crosses
        # 1/_COMPACT_FRAC and one compaction sweeps them out.  This
        # keeps the per-cycle loop free of id-indexed gather/scatter.
        cid = np.empty(0, dtype=np.int64)  # packet ids, ascending
        cpx = np.empty(0, dtype=np.int32)
        cpy = np.empty(0, dtype=np.int32)
        cdx = np.empty(0, dtype=np.int32)
        cdy = np.empty(0, dtype=np.int32)
        chops = np.empty(0, dtype=np.int64)
        cstalls = np.empty(0, dtype=np.int64)
        alive = np.empty(0, dtype=bool)
        state = kern.new_state(0)
        ndead = 0

        hist_occ = hist_lat = None
        if telemetry is not None:
            hist_occ = telemetry.histogram("link_occupancy")
            hist_lat = telemetry.histogram("packet_latency_cycles")

        # Contention scratch: ``winner[link]`` holds the lowest proposal
        # lane targeting that link this cycle.  Writing lane indices in
        # *reverse* order makes the last (= lowest-lane) write win, with
        # no sort and no per-cycle reset — every link read back was
        # freshly written this cycle.  Slots past ``nlinks`` are the
        # fake links that keep dead lanes out of contention.
        winner = np.zeros(nlinks, dtype=np.int32)
        iota = np.empty(0, dtype=np.int32)
        fake = np.empty(0, dtype=np.int32)  # nlinks + lane, per lane

        def flush(mask):
            """Write a retiring lane subset's counters back by id."""
            rows = cid[mask]
            hops[rows] = chops[mask]
            stalls[rows] = cstalls[mask]
            return rows

        while cycle < max_cycles:
            # 1. admit
            if ptr < n:
                k = int(np.searchsorted(inj_sorted, cycle, side="right"))
                if k > ptr:
                    new = order[ptr:k]
                    ptr = k
                    ok_ep = enabled[sx[new], sy[new]] & enabled[dx[new], dy[new]]
                    bad = new[~ok_ep]
                    status[bad] = _DROPPED
                    reason[bad] = _R_BAD_ENDPOINT
                    good = new[ok_ep]
                    start[good] = inject[good]
                    local = (sx[good] == dx[good]) & (sy[good] == dy[good])
                    loc = good[local]
                    status[loc] = _DELIVERED
                    finish[loc] = inject[loc]
                    live = good[~local]
                    status[live] = _ACTIVE
                    if live.size:
                        # A lane gains at most one hop per cycle, so no
                        # budget drop can fire before this floor.
                        budget_floor = min(
                            budget_floor, cycle + self.max_hops
                        )
                        cid = np.concatenate((cid, live))
                        cpx = np.concatenate((cpx, sx[live]))
                        cpy = np.concatenate((cpy, sy[live]))
                        cdx = np.concatenate((cdx, dx[live]))
                        cdy = np.concatenate((cdy, dy[live]))
                        z = np.zeros(live.size, dtype=np.int64)
                        chops = np.concatenate((chops, z))
                        cstalls = np.concatenate((cstalls, z))
                        alive = np.concatenate(
                            (alive, np.ones(live.size, dtype=bool))
                        )
                        if state is not None:
                            state = state.append_idle(live.size)
                        if out_of_order and np.any(np.diff(cid) < 0):
                            o = np.argsort(cid, kind="stable")
                            cid = cid[o]
                            cpx, cpy = cpx[o], cpy[o]
                            cdx, cdy = cdx[o], cdy[o]
                            chops, cstalls = chops[o], cstalls[o]
                            alive = alive[o]
                            if state is not None:
                                state = state.select(o)
                        if winner.size < nlinks + cid.size:
                            winner = np.zeros(
                                nlinks + cid.size, dtype=np.int32
                            )
                        if iota.size < cid.size:
                            iota = np.arange(cid.size, dtype=np.int32)
                            fake = nlinks + iota
            if cid.size - ndead == 0:
                if cid.size:
                    # Everything in flight retired: drop the lanes.
                    cid = cid[:0]
                    cpx, cpy = cpx[:0], cpy[:0]
                    cdx, cdy = cdx[:0], cdy[:0]
                    chops, cstalls = chops[:0], cstalls[:0]
                    alive = alive[:0]
                    state = kern.new_state(0)
                    ndead = 0
                if ptr >= n:
                    break
                cycle = int(inj_sorted[ptr])
                continue

            # 2. hop budget
            if cycle >= budget_floor:
                over = alive & (chops >= self.max_hops)
                if over.any():
                    rows = flush(over)
                    status[rows] = _DROPPED
                    reason[rows] = _R_BUDGET
                    alive &= ~over
                    ndead += int(over.sum())
                    if cid.size - ndead == 0:
                        continue

            # 3. decide (dead lanes compute garbage that stays isolated:
            # their proposals get fake links, their status writes are
            # masked by ``alive``, and their counters were flushed).
            nx, ny, blocked, changes = kern.decide(cpx, cpy, cdx, cdy, state)
            drop = alive & blocked
            if drop.any():
                rows = flush(drop)
                status[rows] = _DROPPED
                reason[rows] = _R_BLOCKED
                alive &= ~blocked
                ndead += int(drop.sum())
                if cid.size - ndead == 0:
                    cycle += 1
                    continue

            # 4. contend: one packet per directed link, oldest id wins.
            # Lanes are ascending by id, so lane order is age order; the
            # reverse-write trick keeps the lowest lane per link.
            ddx = nx - cpx  # one of (+-1, 0) per dim, at most one nonzero
            ddy = ny - cpy
            dircode = _DIR_LUT.take(ddx + 2 * ddy + 2)
            m = cid.size
            idx = iota[:m]
            link = np.where(
                alive,
                (cpx * height + cpy) * 4 + dircode,
                fake[:m],
            )
            winner[link[::-1]] = idx[::-1]
            win = winner[link] == idx
            cstalls += ~win  # only live losers can lose their link
            if hist_occ is not None:
                _, counts = np.unique(link[alive], return_counts=True)
                hist_occ.observe_many(counts)

            # 5. move winners, commit their detour state, retire arrivals.
            cpx = np.where(win, nx, cpx)
            cpy = np.where(win, ny, cpy)
            chops += win
            if changes is not None:
                crows = changes[0]
                sel = win[crows]
                if sel.any():
                    g = crows[sel]
                    state.on[g] = changes[1][sel]
                    state.axis[g] = changes[2][sel]
                    state.face[g] = changes[3][sel]
                    state.run[g] = changes[4][sel]
                    state.rect[g] = changes[5][sel]
            arrived = alive & win & (cpx == cdx) & (cpy == cdy)
            if arrived.any():
                rows = flush(arrived)
                status[rows] = _DELIVERED
                finish[rows] = cycle + 1
                alive &= ~arrived
                ndead += int(arrived.sum())

            if ndead * self._COMPACT_FRAC > cid.size:
                keep = alive
                cid = cid[keep]
                cpx, cpy = cpx[keep], cpy[keep]
                cdx, cdy = cdx[keep], cdy[keep]
                chops, cstalls = chops[keep], cstalls[keep]
                alive = np.ones(cid.size, dtype=bool)
                if state is not None:
                    state = state.select(keep)
                ndead = 0

            cycle += 1
            if cid.size - ndead == 0 and ptr >= n:
                break

        if cid.size and alive.any():
            flush(alive)  # stuck at the horizon: record partial progress
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
        st = [kern.initial_state_one() for _ in range(n)]

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
