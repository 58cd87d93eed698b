"""Cycle-level wormhole network simulator.

Models the switching layer of the mesh multicomputers the paper's fault
regions exist for: packets travel as worms of flits, the head flit
reserves one virtual channel per link as it advances, body flits
pipeline behind it, and the tail flit releases the channels.  A blocked
worm keeps everything it holds — so cyclic channel waits stall forever,
and the simulator's watchdog detects and reports such deadlocks instead
of hanging.

The model (one-flit-per-cycle links, per-VC input FIFOs, deterministic
hop functions, fair per-link VC allocation) is the standard textbook
abstraction: detailed enough to reproduce the classical phenomena —
dimension-order routing never deadlocks, cyclic routing on one virtual
channel deadlocks, a dateline VC discipline breaks the cycle — while
staying fast enough to sweep injection rates in the benchmarks.

Simplifications (documented, deliberate): infinite injection queues,
single-cycle routing decisions, ejection bandwidth of one flit per
cycle per node, and no pipelined switch stages.  None of these affect
the deadlock structure, which is what the paper's convexity argument
is about.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import RoutingError
from repro.mesh.topology import Topology
from repro.network.batched import _percentile
from repro.network.flits import Flit, WormPacket
from repro.network.hops import HopFunction
from repro.types import Coord

__all__ = ["VCSelector", "WormholeNetwork", "NetworkResult", "dateline_vc_policy"]

#: Channel identity: (upstream node, downstream node, virtual channel).
_ChannelId = Tuple[Coord, Coord, int]

#: ``fn(from_node, to_node, current_vc) -> preference-ordered VC list``.
VCSelector = Callable[[Coord, Coord, int], Sequence[int]]


def _any_vc(num_vcs: int) -> VCSelector:
    order = list(range(num_vcs))

    def fn(_frm: Coord, _to: Coord, _cur: int) -> Sequence[int]:
        return order

    return fn


def dateline_vc_policy(ring: Sequence[Coord]) -> VCSelector:
    """The classic dateline discipline for cyclic routes.

    Worms start on VC 0 and switch to VC 1 when crossing the link from
    the last ring node back to the first (the *dateline*).  This breaks
    the channel-dependency cycle of ring routing with just two virtual
    channels — the "relatively few virtual channels" the paper's
    Section 1 refers to.
    """
    dateline = (ring[-1], ring[0])

    def fn(frm: Coord, to: Coord, cur: int) -> Sequence[int]:
        if (frm, to) == dateline or cur >= 1:
            return [1]
        return [0]

    return fn


@dataclass
class _Worm:
    """Runtime state of one in-flight packet."""

    packet: WormPacket
    flits: List[Flit]
    injected: int = 0                      # flits pushed into the network
    channels: Deque[_ChannelId] = field(default_factory=deque)  # acquired, in order
    links_acquired: int = 0                # total links ever reserved
    head_blocked: bool = False
    dropped: bool = False


@dataclass(frozen=True)
class NetworkResult:
    """Outcome of one simulation run.

    Empty-run semantics are explicit and vacuous: with no offered
    packets :attr:`delivery_rate` is ``1.0`` (nothing was lost) while
    every latency statistic is ``nan`` (there is no latency to report).
    The same convention holds for
    :class:`~repro.network.batched.BatchedResult`, so sweep code can
    treat both result types uniformly.
    """

    delivered: Tuple[WormPacket, ...]
    dropped: Tuple[WormPacket, ...]
    stuck: Tuple[WormPacket, ...]
    cycles: int
    deadlocked: bool

    @property
    def delivery_rate(self) -> float:
        """Delivered fraction of all offered packets; empty runs are 1.0."""
        total = len(self.delivered) + len(self.dropped) + len(self.stuck)
        return len(self.delivered) / total if total else 1.0

    @property
    def latencies(self) -> np.ndarray:
        """Delivered-packet latency vector (cycles), possibly empty."""
        return np.array(
            [p.latency for p in self.delivered if p.latency is not None],
            dtype=np.int64,
        )

    @property
    def mean_latency(self) -> float:
        """Mean delivered latency; ``nan`` when nothing was delivered."""
        lats = self.latencies
        return float(lats.mean()) if lats.size else float("nan")

    @property
    def p50_latency(self) -> float:
        """Median delivered latency (nearest-rank); ``nan`` when empty."""
        return _percentile(self.latencies, 0.50)

    @property
    def p95_latency(self) -> float:
        return _percentile(self.latencies, 0.95)

    @property
    def p99_latency(self) -> float:
        return _percentile(self.latencies, 0.99)

    @property
    def throughput(self) -> float:
        """Delivered flits per cycle across the whole run."""
        flits = sum(p.length for p in self.delivered)
        return flits / self.cycles if self.cycles else 0.0


class WormholeNetwork:
    """A wormhole-switched mesh with virtual channels.

    Parameters
    ----------
    topology:
        The machine.
    hop_fn:
        Memoryless per-hop routing function.
    num_vcs:
        Virtual channels per physical link.
    buffer_depth:
        Flit capacity of each per-VC input FIFO.
    vc_policy:
        Preference-ordered VC selection per hop; default tries every VC
        lowest-first.
    watchdog:
        Declare deadlock after this many cycles without any flit
        movement while worms are in flight.
    """

    def __init__(
        self,
        topology: Topology,
        hop_fn: Optional[HopFunction] = None,
        num_vcs: int = 1,
        buffer_depth: int = 2,
        vc_policy: Optional[VCSelector] = None,
        watchdog: int = 200,
    ):
        if num_vcs < 1:
            raise RoutingError(f"need at least one virtual channel, got {num_vcs}")
        if buffer_depth < 1:
            raise RoutingError(f"buffer depth must be >= 1, got {buffer_depth}")
        self._topology = topology
        self._hop_fn = hop_fn
        self._num_vcs = num_vcs
        self._depth = buffer_depth
        self._vc_policy = vc_policy if vc_policy is not None else _any_vc(num_vcs)
        self._watchdog = watchdog
        self._owner: Dict[_ChannelId, int] = {}
        self._buffers: Dict[_ChannelId, deque] = {}

    # -- channel helpers -----------------------------------------------------------

    def _buffer(self, ch: _ChannelId) -> deque:
        buf = self._buffers.get(ch)
        if buf is None:
            buf = deque()
            self._buffers[ch] = buf
        return buf

    def _acquire(self, frm: Coord, to: Coord, cur_vc: int, packet_id: int
                 ) -> Optional[_ChannelId]:
        if to not in self._topology.neighbors(frm):
            raise RoutingError(f"hop function produced non-link {frm}->{to}")
        for vc in self._vc_policy(frm, to, cur_vc):
            if not 0 <= vc < self._num_vcs:
                raise RoutingError(f"vc policy selected invalid VC {vc}")
            ch = (frm, to, vc)
            if self._owner.get(ch) is None and not self._buffer(ch):
                self._owner[ch] = packet_id
                return ch
        return None

    # -- simulation -------------------------------------------------------------------

    def run(
        self,
        packets: Sequence[WormPacket],
        max_cycles: int = 100_000,
    ) -> NetworkResult:
        """Inject the given packets at their ``inject_cycle`` and simulate.

        Returns when every packet is delivered or dropped, when the
        watchdog trips (deadlock), or at ``max_cycles``.
        """
        worms = [ _Worm(packet=p, flits=list(p.flits())) for p in packets ]
        pending = sorted(worms, key=lambda w: (w.packet.inject_cycle, w.packet.packet_id))
        pptr = 0  # admission cursor into ``pending`` (no O(n) pop(0))
        active: List[_Worm] = []  # kept ascending by packet_id
        delivered: List[WormPacket] = []
        dropped: List[WormPacket] = []
        cycle = 0
        idle_cycles = 0
        deadlocked = False

        while cycle < max_cycles:
            # Admit packets whose injection time arrived.
            while pptr < len(pending) and pending[pptr].packet.inject_cycle <= cycle:
                worm = pending[pptr]
                pptr += 1
                if worm.packet.source == worm.packet.dest:
                    # Local delivery needs no network resources.
                    worm.packet.start_cycle = cycle
                    worm.packet.finish_cycle = cycle
                    delivered.append(worm.packet)
                else:
                    # Sorted insertion keeps the oldest-first service
                    # order without re-sorting ``active`` every cycle.
                    insort(active, worm, key=lambda w: w.packet.packet_id)

            moved = self._step(active, cycle)

            # Retire finished/dropped worms.
            still: List[_Worm] = []
            for worm in active:
                if worm.packet.delivered:
                    delivered.append(worm.packet)
                elif worm.dropped:
                    dropped.append(worm.packet)
                else:
                    still.append(worm)
            active = still

            cycle += 1
            if not active and pptr >= len(pending):
                break
            if active and not moved:
                idle_cycles += 1
                if idle_cycles >= self._watchdog:
                    deadlocked = True
                    break
            else:
                idle_cycles = 0

        stuck = tuple(w.packet for w in active) + tuple(
            w.packet for w in pending[pptr:]
        )
        return NetworkResult(
            delivered=tuple(delivered),
            dropped=tuple(dropped),
            stuck=stuck,
            cycles=cycle,
            deadlocked=deadlocked,
        )

    # -- one cycle ------------------------------------------------------------------

    def _step(self, active: List[_Worm], cycle: int) -> bool:
        moved = False
        # Deterministic service order: oldest packet first (age-based
        # priority also avoids starvation).  ``active`` is maintained
        # ascending by packet_id, so no per-cycle sort is needed.
        for worm in active:
            if self._advance_worm(worm, cycle):
                moved = True
        return moved

    def _advance_worm(self, worm: _Worm, cycle: int) -> bool:
        """Move this worm's flits forward by at most one hop each."""
        packet = worm.packet
        moved = False

        # 1. Head progress: extend the route or eject at the destination.
        if worm.channels:
            head_ch = worm.channels[-1]
            buf = self._buffer(head_ch)
            at_dest = (
                head_ch[1] == packet.dest
                and (packet.path is None or worm.links_acquired == len(packet.path) - 1)
            )
            if buf and at_dest:
                flit = buf.popleft()
                packet.flits_ejected += 1
                if flit.kind.is_tail:
                    packet.finish_cycle = cycle
                    self._release(worm, head_ch)
                moved = True
            elif buf and buf[0].kind.is_head:
                nxt = self._next_node(worm, head_ch[1])
                if nxt is None:
                    self._drop(worm)
                    return True
                ch = self._acquire(head_ch[1], nxt, head_ch[2], packet.packet_id)
                if ch is not None:
                    worm.channels.append(ch)
                    worm.links_acquired += 1
                # else: blocked this cycle, try again next cycle.
        else:
            # Route the first link out of the source.
            nxt = self._next_node(worm, packet.source)
            if nxt is None:
                self._drop(worm)
                return True
            ch = self._acquire(packet.source, nxt, 0, packet.packet_id)
            if ch is not None:
                worm.channels.append(ch)
                worm.links_acquired += 1

        # 2. Pipeline flits forward, head-most link first.  Snapshot the
        # deque: tuple indexing is O(1) where mid-deque indexing is not.
        chans = tuple(worm.channels)
        for i in range(len(chans) - 1, 0, -1):
            up, down = chans[i - 1], chans[i]
            up_buf, down_buf = self._buffer(up), self._buffer(down)
            if up_buf and len(down_buf) < self._depth:
                flit = up_buf.popleft()
                down_buf.append(flit)
                moved = True
                if flit.kind.is_tail:
                    self._release(worm, up)

        # 3. Inject the next flit into the first channel.
        if worm.channels and worm.injected < packet.length:
            first = worm.channels[0]
            # The source only feeds the first channel while it still owns it.
            if self._owner.get(first) == packet.packet_id:
                buf = self._buffer(first)
                if len(buf) < self._depth:
                    buf.append(worm.flits[worm.injected])
                    worm.injected += 1
                    if packet.start_cycle is None:
                        packet.start_cycle = cycle
                    moved = True

        # Channel list cleanup: drop released channels from the front.
        while worm.channels and self._owner.get(worm.channels[0]) != packet.packet_id:
            worm.channels.popleft()
        return moved

    def _next_node(self, worm: _Worm, at: Coord) -> Optional[Coord]:
        """The head's next node: follow the source route when present,
        otherwise consult the hop function."""
        packet = worm.packet
        if packet.path is not None:
            i = worm.links_acquired
            if i + 1 >= len(packet.path):
                return None  # route exhausted away from the destination
            if packet.path[i] != at:
                raise RoutingError(
                    f"source route desynchronised at {at} (expected {packet.path[i]})"
                )
            return packet.path[i + 1]
        if self._hop_fn is None:
            raise RoutingError(
                "network has no hop function and the packet carries no source route"
            )
        return self._hop_fn(at, packet.dest)

    def _release(self, worm: _Worm, ch: _ChannelId) -> None:
        if self._owner.get(ch) == worm.packet.packet_id:
            self._owner[ch] = None

    def _drop(self, worm: _Worm) -> None:
        """Abort a worm (unroutable hop): free everything it holds."""
        for ch in worm.channels:
            if self._owner.get(ch) == worm.packet.packet_id:
                self._owner[ch] = None
                self._buffer(ch).clear()
        worm.channels.clear()
        worm.dropped = True
