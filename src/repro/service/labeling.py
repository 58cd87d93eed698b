"""The in-process labeling service: converged labels as a live object.

:class:`LabelingService` wraps one
:class:`~repro.core.incremental.IncrementalLabeling` engine with the
operational surface a long-lived process needs: instrumented updates
(per-update spans, latency histograms, ``service_update`` events), a
rolling latency window for percentile reporting, and a ``stats()``
snapshot that the NDJSON server's ``stats`` op returns verbatim.

Sweeps and benchmarks use this class directly; ``repro serve`` puts a
socket in front of it (:mod:`repro.service.server`).  Either way the
answers are bit-for-bit the from-scratch fixpoint of the accumulated
fault set — the engine's property tests pin that, and
:meth:`verify_against_scratch` re-checks it on demand.

Durability (optional): pass ``wal_dir`` and every applied delta is
appended to a write-ahead log *before* the caller is answered, with
periodic snapshot checkpoints compacting the log (``snapshot_every``).
:meth:`LabelingService.recover` rebuilds a service from such a directory
after a crash — see :mod:`repro.service.recovery` for the replay and
bit-for-bit verification contract.  Requests carrying an idempotency key
(``client`` + ``seq``) are deduplicated against a per-client high-water
mark, turning the client's at-least-once retry loop into exactly-once
application.
"""

from __future__ import annotations

import time
from collections import deque
from typing import (
    Any,
    Deque,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.incremental import DeltaReport, IncrementalLabeling
from repro.core.pipeline import LabelingResult
from repro.core.status import NodeStatus, SafetyDefinition
from repro.errors import ServiceError
from repro.faults.faultset import FaultSet
from repro.mesh.topology import Topology
from repro.obs.metrics import latency_percentiles
from repro.obs.slo import SLOConfig, SLOTracker
from repro.obs.telemetry import Telemetry
from repro.service.recovery import ClientState, RecoveredState, recover_state
from repro.service.wal import (
    DeltaRecord,
    SnapshotStore,
    WriteAheadLog,
    clear_clean_marker,
    write_clean_marker,
)
from repro.types import Coord

__all__ = ["BatchOutcome", "LabelingService"]


class BatchOutcome(NamedTuple):
    """Result of one (possibly batched, possibly deduplicated) update.

    ``deltas`` holds one ``(delta_dict, version)`` pair per requested
    delta, in request order; ``version`` is the engine version after the
    whole update; ``duplicate`` is True when the request was answered
    from the per-client dedup store without touching the engine.
    """

    deltas: Tuple[Tuple[Dict[str, Any], int], ...]
    version: int
    duplicate: bool


class LabelingService:
    """Online fault-delta answering over a maintained label state.

    Parameters
    ----------
    topology:
        Mesh or torus.
    definition:
        Phase-1 unsafe rule.
    faults:
        Optional initial fault set; absorbed as one injection (and
        logged, when durable).
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry`.  Each update
        runs under a ``service_update`` span, emits a ``service_update``
        event, and observes its latency into the
        ``service_update_latency_us`` histogram; durable appends and
        checkpoints add ``wal_append`` / ``snapshot_write`` events and
        the matching ``*_us`` histograms.
    latency_window:
        How many recent update latencies the rolling percentile window
        keeps.
    wal_dir:
        Optional write-ahead-log directory; enables durability.
    snapshot_every:
        Checkpoint (snapshot + WAL rotation) after this many effective
        deltas.  ``None`` disables automatic checkpoints
        (:meth:`checkpoint` still works on demand).
    fsync_every:
        Passed to :class:`~repro.service.wal.WriteAheadLog`: fsync the
        log every N appends (``None`` = only at checkpoints/close).
    crash_hook:
        Chaos-test seam, forwarded to the WAL and snapshot writers.
    slo:
        Optional :class:`~repro.obs.slo.SLOConfig`; the service grades
        request outcomes fed through :meth:`record_request` against it
        in a rolling window, surfaced as ``stats()["slo"]`` (and from
        there the ``stats`` op and the admin plane's ``/varz``).
    """

    def __init__(
        self,
        topology: Topology,
        definition: SafetyDefinition = SafetyDefinition.DEF_2B,
        faults: Optional[FaultSet | Iterable[Coord]] = None,
        telemetry: Optional[Telemetry] = None,
        latency_window: int = 8192,
        wal_dir: Optional[str] = None,
        snapshot_every: Optional[int] = None,
        fsync_every: Optional[int] = None,
        crash_hook: Optional[Any] = None,
        slo: Optional[SLOConfig] = None,
    ):
        if snapshot_every is not None and snapshot_every < 1:
            raise ValueError(
                f"snapshot_every must be positive, got {snapshot_every}"
            )
        # An empty Telemetry (no sinks/metrics/spans) keeps every guard
        # false, so the untraced service pays only the branch.
        self._telemetry = telemetry if telemetry is not None else Telemetry()
        self._engine = IncrementalLabeling(
            topology, definition, telemetry=telemetry
        )
        self._latency_us: Deque[float] = deque(maxlen=latency_window)
        has_metrics = telemetry is not None and telemetry.metrics is not None
        self._latency_meter = (
            telemetry.histogram("service_update_latency_us")
            if has_metrics
            else None
        )
        self._wal_meter = (
            telemetry.histogram("wal_append_us") if has_metrics else None
        )
        self._snapshot_meter = (
            telemetry.histogram("snapshot_write_us") if has_metrics else None
        )
        self._started_at = time.time()
        self.slo = SLOTracker(slo if slo is not None else SLOConfig())
        self._clients: Dict[str, ClientState] = {}
        self._snapshot_every = snapshot_every
        self._since_snapshot = 0
        self.snapshots_written = 0
        self.recovery: Optional[RecoveredState] = None
        self._wal: Optional[WriteAheadLog] = None
        self._snapshots: Optional[SnapshotStore] = None
        if wal_dir is not None:
            self._attach_wal(wal_dir, fsync_every, crash_hook)
        if faults is not None:
            self.update(inject=list(faults))

    def _attach_wal(
        self,
        wal_dir: str,
        fsync_every: Optional[int],
        crash_hook: Optional[Any],
    ) -> None:
        clear_clean_marker(wal_dir)  # this process owns the dir now
        self._wal = WriteAheadLog(
            wal_dir, fsync_every=fsync_every, crash_hook=crash_hook
        )
        self._snapshots = SnapshotStore(wal_dir, crash_hook=crash_hook)

    @classmethod
    def recover(
        cls,
        wal_dir: str,
        topology: Optional[Topology] = None,
        definition: Optional[SafetyDefinition] = None,
        telemetry: Optional[Telemetry] = None,
        snapshot_every: Optional[int] = None,
        fsync_every: Optional[int] = None,
    ) -> "LabelingService":
        """Rebuild a durable service from its WAL directory.

        Replays snapshot + WAL tail (asserting recorded versions) and
        checks the result bit-for-bit against a from-scratch relabeling
        before serving anything.  The recovered service keeps appending
        to the same log; its :attr:`recovery` attribute records what the
        replay found.
        """
        state = recover_state(
            wal_dir, topology=topology, definition=definition, telemetry=telemetry
        )
        service = cls(
            state.engine.topology,
            state.engine.definition,
            telemetry=telemetry,
            snapshot_every=snapshot_every,
        )
        service._engine = state.engine
        service._clients = dict(state.clients)
        service.recovery = state
        service._attach_wal(wal_dir, fsync_every, None)
        return service

    # -- views ------------------------------------------------------------------

    @property
    def engine(self) -> IncrementalLabeling:
        """The underlying incremental engine (shared state, not a copy)."""
        return self._engine

    @property
    def topology(self) -> Topology:
        return self._engine.topology

    @property
    def definition(self) -> SafetyDefinition:
        return self._engine.definition

    @property
    def version(self) -> int:
        return self._engine.version

    @property
    def faults(self) -> FaultSet:
        return self._engine.faults

    @property
    def durable(self) -> bool:
        return self._wal is not None

    def is_enabled(self, c: Coord) -> bool:
        return self._engine.is_enabled(c)

    def status_of(self, c: Coord) -> NodeStatus:
        return self._engine.status_of(c)

    def block_summaries(self) -> List[Dict[str, object]]:
        return self._engine.block_summaries()

    def snapshot(self) -> LabelingResult:
        """Full :class:`LabelingResult` of the current state (cached per
        version)."""
        return self._engine.snapshot(telemetry=self._telemetry)

    # -- updates ----------------------------------------------------------------

    def update(
        self,
        inject: Iterable[Coord] = (),
        repair: Iterable[Coord] = (),
    ) -> DeltaReport:
        """Absorb one fault-set delta; the instrumented front door.

        Semantics are exactly :meth:`IncrementalLabeling.apply`; this
        wrapper adds the span, the latency sample, the
        ``service_update`` event and — when durable — the WAL append
        (before returning, i.e. before any ack) plus the periodic
        checkpoint.
        """
        report = self._update_one(inject, repair, None, None, 0, 1)
        self._maybe_checkpoint()
        return report

    def inject(self, coords: Iterable[Coord]) -> DeltaReport:
        return self.update(inject=list(coords))

    def repair(self, coords: Iterable[Coord]) -> DeltaReport:
        return self.update(repair=list(coords))

    def apply_batch(
        self,
        deltas: Sequence[Tuple[Iterable[Coord], Iterable[Coord]]],
        client: Optional[str] = None,
        seq: Optional[int] = None,
    ) -> BatchOutcome:
        """Apply a pipelined batch of deltas as one idempotent update.

        With a ``client``/``seq`` idempotency key the batch is applied
        exactly once: a retry of the current high-water sequence number
        is answered from the stored outcome without touching the engine,
        and a sequence number *below* the high-water mark is rejected
        (the client only ever retries its latest request).
        """
        if (client is None) != (seq is None):
            raise ServiceError(
                "idempotent updates need both 'client' and 'seq'"
            )
        if client is not None:
            state = self._clients.get(client)
            if state is not None:
                if seq == state.seq:
                    return BatchOutcome(state.outcomes, state.version, True)
                if seq < state.seq:
                    raise ServiceError(
                        f"stale sequence {seq} for client {client!r} "
                        f"(high-water mark {state.seq})"
                    )
        outcomes: List[Tuple[Dict[str, Any], int]] = []
        size = len(deltas)
        for index, (inj, rep) in enumerate(deltas):
            report = self._update_one(inj, rep, client, seq, index, size)
            outcomes.append((report.to_dict(), self._engine.version))
        version = self._engine.version
        if client is not None and seq is not None:
            self._clients[client] = ClientState(
                seq=seq, outcomes=tuple(outcomes), version=version
            )
        self._maybe_checkpoint()
        return BatchOutcome(tuple(outcomes), version, False)

    def _update_one(
        self,
        inject: Iterable[Coord],
        repair: Iterable[Coord],
        client: Optional[str],
        seq: Optional[int],
        batch_index: int,
        batch_size: int,
    ) -> DeltaReport:
        tel = self._telemetry
        with tel.span("service_update"):
            t0 = time.perf_counter()
            delta = self._engine.apply(inject=inject, repair=repair)
            latency_us = 1e6 * (time.perf_counter() - t0)
        self._latency_us.append(latency_us)
        if self._latency_meter is not None:
            self._latency_meter.observe(latency_us)
        if tel.wants("info"):
            tel.emit(
                "service_update",
                injected=len(delta.injected),
                repaired=len(delta.repaired),
                rounds1=delta.rounds_phase1,
                rounds2=delta.rounds_phase2,
                latency_us=latency_us,
            )
        # WAL before ack.  Effective deltas are always logged; no-op
        # deltas are logged only when they carry an idempotency key
        # (the record is what rebuilds the dedup high-water mark).
        if self._wal is not None and (delta.effective or client is not None):
            t0 = time.perf_counter()
            nbytes = self._wal.append(
                DeltaRecord(
                    version=self._engine.version,
                    inject=delta.injected,
                    repair=delta.repaired,
                    client=client,
                    seq=seq,
                    batch_index=batch_index,
                    batch_size=batch_size,
                )
            )
            wal_us = 1e6 * (time.perf_counter() - t0)
            if delta.effective:
                self._since_snapshot += 1
            if self._wal_meter is not None:
                self._wal_meter.observe(wal_us)
            if tel.wants("debug"):
                tel.emit(
                    "wal_append",
                    version=self._engine.version,
                    bytes=nbytes,
                    latency_us=wal_us,
                )
        return delta

    # -- durability -------------------------------------------------------------

    def _maybe_checkpoint(self) -> None:
        if (
            self._snapshot_every is not None
            and self._since_snapshot >= self._snapshot_every
        ):
            self.checkpoint()

    def _durable_state(self) -> Dict[str, Any]:
        """The full service state a snapshot checkpoint captures."""
        engine = self._engine
        topo = engine.topology
        return {
            "schema": 1,
            "kind": "torus" if topo.wraps else "mesh",
            "width": topo.shape[0],
            "height": topo.shape[1],
            "definition": engine.definition.value,
            "version": engine.version,
            "faults": sorted([int(x), int(y)] for x, y in engine.faults.cells),
            "clients": {
                cid: {
                    "seq": st.seq,
                    "version": st.version,
                    "outcomes": [[d, v] for d, v in st.outcomes],
                }
                for cid, st in self._clients.items()
            },
        }

    def checkpoint(self) -> int:
        """Write a snapshot and rotate the WAL; returns snapshot bytes.

        No-op (returns 0) on a non-durable service.
        """
        if self._snapshots is None or self._wal is None:
            return 0
        t0 = time.perf_counter()
        nbytes = self._snapshots.write(self._durable_state())
        self._wal.rotate()
        elapsed_us = 1e6 * (time.perf_counter() - t0)
        self._since_snapshot = 0
        self.snapshots_written += 1
        if self._snapshot_meter is not None:
            self._snapshot_meter.observe(elapsed_us)
        tel = self._telemetry
        if tel.wants("info"):
            tel.emit(
                "snapshot_write",
                version=self._engine.version,
                faults=self._engine.num_faults,
                bytes=nbytes,
                latency_us=elapsed_us,
            )
        return nbytes

    def finalize(self) -> None:
        """Graceful-shutdown epilogue: fsync the WAL, write the
        clean-shutdown marker, close the log.  Idempotent; no-op on a
        non-durable service."""
        if self._wal is None:
            return
        self._wal.fsync()
        write_clean_marker(self._wal.wal_dir)
        self._wal.close()

    # -- reporting --------------------------------------------------------------

    def record_request(self, ok: bool, latency_us: float) -> None:
        """Feed one request outcome into the rolling SLO window.

        The server front end calls this for every answered *and*
        rejected request (oversized frame, deadline, load shed), so the
        error budget in :meth:`stats` sees the failures clients see.
        Thread-safe; in-process users may call it directly.
        """
        self.slo.record(ok, latency_us)

    def stats(self) -> Dict[str, object]:
        """Operational counters: what ``repro serve``'s ``stats`` op
        returns.

        ``update_latency_us`` summarizes the rolling window of recent
        updates (nearest-rank percentiles); cache numbers come straight
        from the shared :class:`BlockEnableCache`; ``slo`` grades the
        rolling request-outcome window (availability, error budget,
        latency objective — see :mod:`repro.obs.slo`).  Durable services
        add a ``wal`` block (appends, bytes, snapshots, dedup clients).
        """
        engine = self._engine
        topo = engine.topology
        stats: Dict[str, object] = {
            "topology": {
                "kind": "torus" if topo.wraps else "mesh",
                "width": topo.shape[0],
                "height": topo.shape[1],
            },
            "definition": engine.definition.value,
            "version": engine.version,
            "uptime_s": time.time() - self._started_at,
            "faults": engine.num_faults,
            "blocks": engine.num_blocks,
            "updates": engine.num_updates,
            "rounds_phase1_total": engine.total_rounds_phase1,
            "rounds_phase2_total": engine.total_rounds_phase2,
            "cache": engine.cache.stats(),
            "update_latency_us": latency_percentiles(list(self._latency_us)),
            "slo": self.slo.evaluate(),
        }
        if self._wal is not None:
            stats["wal"] = {
                "appended": self._wal.appended,
                "bytes_written": self._wal.bytes_written,
                "snapshots": self.snapshots_written,
                "since_snapshot": self._since_snapshot,
                "clients": len(self._clients),
            }
        return stats

    def verify_against_scratch(self) -> bool:
        """Whether the served labels equal from-scratch labeling."""
        return self._engine.verify_against_scratch()
