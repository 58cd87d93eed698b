"""Typed, timestamped event records and their schemas.

An :class:`Event` is one observation from an instrumented component:
an engine starting a round, a node flipping status, a crash batch
striking, the channel dropping a message.  Events are plain data — a
name, a wall-clock timestamp, a severity level and a flat field
mapping — so every sink (ring buffer, JSONL file, a
:class:`~repro.fabric.trace.RoundTrace`) consumes the same records.

:data:`EVENT_SCHEMAS` declares, per event name, which fields are
required; :func:`validate_event` / :func:`validate_jsonl` enforce the
schema strictly (unknown names and missing fields are errors, extra
fields are allowed so emitters can attach context labels).  The CI
``obs`` job validates every traced run's JSONL against these schemas.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterator, Mapping, Tuple

from repro.errors import ObservabilityError

__all__ = [
    "EVENT_SCHEMAS",
    "LEVELS",
    "Event",
    "jsonable",
    "snapshot_event",
    "validate_event",
    "validate_event_dict",
    "validate_jsonl",
]

#: Severity levels, least to most important.  A telemetry configured at
#: level L discards events below L.
LEVELS: Tuple[str, ...] = ("debug", "info")

#: Required fields per event name.  Extra fields are permitted (bound
#: context labels such as ``engine``/``phase`` ride along); missing
#: required fields or unknown event names are validation errors.
EVENT_SCHEMAS: Dict[str, FrozenSet[str]] = {
    # engine lifecycle
    "run_start": frozenset({"engine", "nodes", "faulty"}),
    "run_end": frozenset(
        {"rounds", "executed_rounds", "messages", "heartbeats", "dropped", "duplicated"}
    ),
    "round_start": frozenset({"round", "clock", "delivered"}),
    "node_flip": frozenset({"node", "clock"}),
    "crash_batch": frozenset({"time", "nodes"}),
    "heartbeat": frozenset({"seq", "clock"}),
    "epoch_end": frozenset(
        {
            "epoch",
            "at_time",
            "crashed",
            "rounds",
            "executed_rounds",
            "messages",
            "dropped",
            "duplicated",
        }
    ),
    # channel
    "message_dropped": frozenset({"sender", "dest"}),
    "message_duplicated": frozenset({"sender", "dest"}),
    # pipeline
    "phase_transition": frozenset({"phase", "status"}),
    # sweeps
    "sweep_plan": frozenset({"jobs", "parallel", "chunk"}),
    "sweep_cell": frozenset({"value", "trial", "ok"}),
    # incremental labeling service
    "service_update": frozenset(
        {"injected", "repaired", "rounds1", "rounds2", "latency_us"}
    ),
    "service_request": frozenset({"op", "ok", "latency_us"}),
    # durability (WAL + snapshots + recovery + client retries)
    "wal_append": frozenset({"version", "bytes", "latency_us"}),
    "snapshot_write": frozenset({"version", "faults", "bytes", "latency_us"}),
    "recovery_replay": frozenset(
        {"snapshot_version", "replayed", "version", "clean", "latency_us"}
    ),
    "request_retry": frozenset({"op", "attempt", "reason"}),
    # full-state snapshots routed to RoundTrace sinks
    "snapshot": frozenset({"key"}),
    # batched traffic engine (injection-rate sweeps)
    "traffic_sweep": frozenset(
        {
            "view",
            "kernel",
            "pattern",
            "rate",
            "packets",
            "delivered",
            "dropped",
            "stuck",
            "cycles",
            "throughput",
            "p50",
            "p95",
            "p99",
        }
    ),
    "saturation_point": frozenset(
        {"view", "kernel", "pattern", "rate", "throughput"}
    ),
}

#: Events too chatty for the default level.
_DEBUG_EVENTS = frozenset(
    {"node_flip", "message_dropped", "message_duplicated", "wal_append"}
)


def default_level(name: str) -> str:
    """The severity an event of this name is emitted at."""
    return "debug" if name in _DEBUG_EVENTS else "info"


@dataclass(frozen=True)
class Event:
    """One structured observation.

    Attributes
    ----------
    name:
        Event type, a key of :data:`EVENT_SCHEMAS`.
    t:
        Wall-clock timestamp (``time.time()`` seconds).
    level:
        Severity, one of :data:`LEVELS`.
    fields:
        The event's payload, including any bound context labels.
    """

    name: str
    t: float
    level: str
    fields: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable view of the event."""
        return {
            "name": self.name,
            "t": self.t,
            "level": self.level,
            "fields": {k: jsonable(v) for k, v in self.fields.items()},
        }


def jsonable(value: Any) -> Any:
    """Coerce a field value into plain JSON types.

    Coordinates are tuples and crash batches are frozensets; JSON knows
    neither, so containers become (sorted, for sets) lists and NumPy
    scalars become Python numbers.  Mapping keys are stringified.
    """
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    if isinstance(value, (frozenset, set)):
        return [jsonable(v) for v in sorted(value)]
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): jsonable(v) for k, v in value.items()}
    if hasattr(value, "item"):  # NumPy scalar
        return value.item()
    return str(value)


def snapshot_event(key: int, snapshot: Mapping[Any, Any]) -> Event:
    """The full-state snapshot event the engines route to trace sinks.

    Carries the raw ``{coord: state}`` mapping (not JSON-coerced): it is
    consumed in-process by :class:`~repro.fabric.trace.RoundTrace`, never
    serialized — file sinks receive only the light engine events.
    """
    return Event(
        name="snapshot",
        t=time.time(),
        level="debug",
        fields={"key": int(key), "snapshot": dict(snapshot)},
    )


def validate_event(event: Event) -> None:
    """Check one :class:`Event` against :data:`EVENT_SCHEMAS`.

    Raises
    ------
    ObservabilityError
        On an unknown name, an invalid level, or a missing required
        field.
    """
    _check(event.name, event.level, event.t, event.fields, context=repr(event))


def validate_event_dict(record: Mapping[str, Any]) -> None:
    """Check one decoded JSONL record (the :meth:`Event.to_dict` shape)."""
    for key in ("name", "t", "level", "fields"):
        if key not in record:
            raise ObservabilityError(f"event record missing {key!r}: {record!r}")
    if not isinstance(record["fields"], Mapping):
        raise ObservabilityError(f"event 'fields' must be a mapping: {record!r}")
    _check(
        record["name"], record["level"], record["t"], record["fields"],
        context=repr(record),
    )


def _check(name: Any, level: Any, t: Any, fields: Mapping, context: str) -> None:
    schema = EVENT_SCHEMAS.get(name)
    if schema is None:
        raise ObservabilityError(f"unknown event name {name!r} in {context}")
    if level not in LEVELS:
        raise ObservabilityError(f"invalid event level {level!r} in {context}")
    if not isinstance(t, (int, float)) or isinstance(t, bool):
        raise ObservabilityError(f"non-numeric event timestamp {t!r} in {context}")
    missing = schema - set(fields)
    if missing:
        raise ObservabilityError(
            f"event {name!r} missing required fields {sorted(missing)} in {context}"
        )


def validate_jsonl(path: str) -> int:
    """Strictly validate an event-log JSONL file; return the event count.

    Raises
    ------
    ObservabilityError
        On the first malformed line or schema violation (with the line
        number in the message).
    """
    count = 0
    for lineno, record in _iter_jsonl(path):
        try:
            validate_event_dict(record)
        except ObservabilityError as exc:
            raise ObservabilityError(f"{path}:{lineno}: {exc}") from exc
        count += 1
    return count


def _iter_jsonl(path: str) -> Iterator[Tuple[int, Any]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    yield lineno, json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ObservabilityError(
                        f"{path}:{lineno}: not JSON: {exc}"
                    ) from exc
    except UnicodeDecodeError as exc:
        # A binary or mis-encoded file is a trace problem, not a crash:
        # surface it through the same error type the CLI turns into a
        # one-line message.
        raise ObservabilityError(f"{path}: not UTF-8 text: {exc}") from exc
