"""Crash recovery: rebuild a labeling service from its WAL directory.

On startup with ``--recover``, the service state is reconstructed in
three steps:

1. **Snapshot load** — the latest checkpoint (atomic and checksummed,
   so it is either absent or whole) seeds the engine with one bulk
   injection of its fault set, then rebases the applied-version counter
   to the snapshot's recorded version.
2. **WAL tail replay** — every intact record after the snapshot is
   re-applied in order.  Each record carries the version it was
   originally acknowledged at; replay asserts the rebuilt engine lands
   on exactly that version, record by record, so a divergent replay is
   loud, never silent.  Records at or below the snapshot version (left
   behind when a crash hits between the snapshot rename and the WAL
   rotation) are skipped.  A torn tail record — the signature of a
   crash mid-append — is discarded by the WAL reader; it was never
   acknowledged.
3. **Bit-for-bit verification** — the recovered planes are checked
   against a from-scratch relabeling of the recovered fault set
   (:meth:`IncrementalLabeling.verify_against_scratch`).  Failure
   raises :class:`~repro.errors.DurabilityError`; a service that cannot
   prove its recovered state refuses to serve it.

Replay also rebuilds the per-client idempotency state (high-water marks
plus the last acknowledged response), so a client retrying across the
crash still gets exactly-once application: a batch's high-water mark
only advances when the *whole* batch reached the log — a partially
logged batch is re-applied on retry, which is safe because fault-set
deltas are idempotent per cell (re-injecting a faulty cell and
re-repairing a healthy one are no-ops).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.incremental import IncrementalLabeling
from repro.core.status import SafetyDefinition
from repro.errors import DurabilityError
from repro.mesh.topology import Mesh2D, Topology, Torus2D
from repro.obs.telemetry import Telemetry
from repro.service.wal import SnapshotStore, WriteAheadLog, read_clean_marker

__all__ = ["ClientState", "RecoveredState", "recover_state"]


@dataclass(frozen=True)
class ClientState:
    """One client's idempotency state: dedup high-water mark plus the
    acknowledged response payload for that sequence number.

    ``outcomes`` holds ``(delta_dict, version)`` pairs — one per delta
    of the acknowledged (possibly batched) update — and ``version`` the
    engine version after the whole update, so a retried request can be
    answered with the byte-identical response it originally got.
    """

    seq: int
    outcomes: Tuple[Tuple[Dict[str, Any], int], ...]
    version: int


@dataclass
class RecoveredState:
    """Everything :func:`recover_state` reconstructs from a WAL dir.

    ``verified`` is always True: recovery raises rather than return a
    state that failed its bit-for-bit check.
    """

    engine: IncrementalLabeling
    clients: Dict[str, ClientState] = field(default_factory=dict)
    snapshot_version: int = 0
    replayed: int = 0
    clean: bool = False
    verified: bool = True
    elapsed_s: float = 0.0


def _topology_from_state(state: Dict[str, Any]) -> Topology:
    cls = Torus2D if state.get("kind") == "torus" else Mesh2D
    return cls(int(state["width"]), int(state["height"]))


def recover_state(
    wal_dir: str,
    topology: Optional[Topology] = None,
    definition: Optional[SafetyDefinition] = None,
    telemetry: Optional[Telemetry] = None,
) -> RecoveredState:
    """Rebuild engine + client dedup state from ``wal_dir``.

    ``topology``/``definition`` are required when no snapshot exists
    (the WAL alone does not name them); when a snapshot exists they are
    cross-checked against it and a mismatch raises
    :class:`~repro.errors.DurabilityError` rather than silently serving
    labels for the wrong fabric.
    """
    t0 = time.perf_counter()
    clean = read_clean_marker(wal_dir)
    snapshot = SnapshotStore(wal_dir).load()

    base_version = 0
    clients: Dict[str, ClientState] = {}
    if snapshot is not None:
        snap_topo = _topology_from_state(snapshot)
        snap_def = SafetyDefinition(snapshot["definition"])
        if topology is not None and (
            topology.shape != snap_topo.shape or topology.wraps != snap_topo.wraps
        ):
            raise DurabilityError(
                f"snapshot is a {snapshot['width']}x{snapshot['height']} "
                f"{snapshot.get('kind', 'mesh')}, not the requested "
                f"{topology.shape[0]}x{topology.shape[1]} "
                f"{'torus' if topology.wraps else 'mesh'}"
            )
        if definition is not None and definition is not snap_def:
            raise DurabilityError(
                f"snapshot used definition {snap_def.value!r}, "
                f"not {definition.value!r}"
            )
        topology, definition = snap_topo, snap_def
        base_version = int(snapshot["version"])
    if topology is None:
        raise DurabilityError(
            f"no snapshot in {wal_dir!r}: recovery needs an explicit "
            "topology to replay the WAL against"
        )
    if definition is None:
        definition = SafetyDefinition.DEF_2B

    engine = IncrementalLabeling(topology, definition, telemetry=telemetry)
    if snapshot is not None:
        faults = [(int(x), int(y)) for x, y in snapshot["faults"]]
        if faults:
            engine.apply(inject=faults)
        engine.set_version(base_version)
        for cid, entry in snapshot.get("clients", {}).items():
            clients[cid] = ClientState(
                seq=int(entry["seq"]),
                outcomes=tuple(
                    (dict(d), int(v)) for d, v in entry["outcomes"]
                ),
                version=int(entry["version"]),
            )

    # Replay the tail.  Batches commit their client's high-water mark
    # only once the final record of the batch is seen; a partial batch
    # stays pending (its deltas are applied — they were durably logged —
    # but the retry will re-run the whole batch, no-op'ing the prefix).
    pending: Dict[str, Tuple[int, List[Tuple[Dict[str, Any], int]]]] = {}
    replayed = 0
    for record in WriteAheadLog.replay(wal_dir):
        effective = bool(record.inject or record.repair)
        if effective and record.version <= base_version:
            continue  # pre-snapshot leftovers (crash before rotation)
        report = engine.apply(inject=record.inject, repair=record.repair)
        replayed += 1
        if effective and engine.version != record.version:
            raise DurabilityError(
                f"WAL replay diverged: record expected version "
                f"{record.version}, engine reached {engine.version}"
            )
        if record.client is not None and record.seq is not None:
            got = pending.get(record.client)
            if got is None or got[0] != record.seq:
                got = (record.seq, [])
                pending[record.client] = got
            got[1].append((report.to_dict(), engine.version))
            if record.batch_index == record.batch_size - 1:
                clients[record.client] = ClientState(
                    seq=record.seq,
                    outcomes=tuple(got[1]),
                    version=engine.version,
                )
                del pending[record.client]

    if not engine.verify_against_scratch():
        raise DurabilityError(
            f"recovered state in {wal_dir!r} diverges from the "
            "from-scratch fixpoint of its own fault set"
        )

    elapsed = time.perf_counter() - t0
    if telemetry is not None and telemetry.wants("info"):
        telemetry.emit(
            "recovery_replay",
            snapshot_version=base_version,
            replayed=replayed,
            version=engine.version,
            clean=clean,
            latency_us=1e6 * elapsed,
        )
    return RecoveredState(
        engine=engine,
        clients=clients,
        snapshot_version=base_version,
        replayed=replayed,
        clean=clean,
        elapsed_s=elapsed,
    )
