"""Reconstruct run reports from an on-disk event trace.

``repro obs summarize <trace.jsonl>`` reads a JSONL event log written
by :class:`~repro.obs.sinks.JSONLSink`, validates every record against
the event schemas, and rebuilds the per-epoch recovery report — the
same numbers the engines record in
:class:`~repro.fabric.stats.RunStats.epochs`, but recovered purely from
the trace.  A test pins the two views of a dynamic run to exact
agreement, which is what makes the trace trustworthy for post-mortem
debugging of runs whose in-memory stats are gone.

Runs are keyed by their bound context labels (``engine``, ``phase``),
so one trace file may hold both phases of a pipeline run, or many sweep
cells, without ambiguity.
"""

from __future__ import annotations

import math
from collections import Counter as TallyCounter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import ObservabilityError
from repro.obs.events import validate_event_dict, _iter_jsonl
from repro.obs.metrics import latency_percentiles
from repro.obs.slo import SLOConfig, evaluate_outcomes

__all__ = [
    "EpochReport",
    "RunReport",
    "TraceSummary",
    "summarize_trace",
]

#: Labels that identify which instrumented run an event belongs to.
_RUN_LABELS = ("engine", "phase")


@dataclass(frozen=True)
class EpochReport:
    """One convergence epoch, reconstructed from an ``epoch_end`` event.

    Field meanings match :class:`~repro.fabric.stats.EpochStats`.
    """

    epoch: int
    at_time: int
    crashed: Tuple[Tuple[int, int], ...]
    rounds: int
    executed_rounds: int
    messages: int
    dropped: int
    duplicated: int


@dataclass
class RunReport:
    """Everything reconstructed about one engine run in the trace."""

    key: Tuple[Tuple[str, str], ...]  # sorted (label, value) pairs
    epochs: List[EpochReport] = field(default_factory=list)
    rounds: Optional[int] = None
    executed_rounds: Optional[int] = None
    messages: Optional[int] = None
    heartbeats: Optional[int] = None
    dropped: Optional[int] = None
    duplicated: Optional[int] = None

    @property
    def recovery_rounds(self) -> int:
        """Changing rounds in epochs after the first (recovery cost)."""
        return sum(e.rounds for e in self.epochs[1:])

    def label(self) -> str:
        """Human-readable run key, e.g. ``engine=sync phase=unsafe``."""
        if not self.key:
            return "(unlabeled)"
        return " ".join(f"{k}={v}" for k, v in self.key)


@dataclass
class TraceSummary:
    """The full reconstruction of one trace file."""

    path: str
    events_total: int
    by_name: Dict[str, int]
    runs: List[RunReport]
    #: Wall-clock seconds per pipeline phase, rebuilt from paired
    #: ``phase_transition`` start/end timestamps — this is what
    #: attributes kernel vs ``extract_blocks`` / ``extract_regions``
    #: time for a traced run.  Empty when the trace holds no pipeline
    #: events.
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Per-op request latency percentiles (µs), rebuilt from
    #: ``service_request`` events of a traced ``repro serve`` run.
    #: Keys are ops (``update``, ``query``, ...); values hold ``count``,
    #: ``errors``, ``p50``, ``p90``, ``p99`` and ``max``.  Empty when
    #: the trace holds no service events.
    service_latency: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Durability accounting, rebuilt from ``wal_append`` /
    #: ``snapshot_write`` / ``recovery_replay`` / ``request_retry``
    #: events of a durable ``repro serve`` run.  ``wal_append`` and
    #: ``snapshot_write`` entries carry latency percentiles (µs) plus
    #: total ``bytes``; ``recovery_replay`` carries ``count``,
    #: ``replayed`` records and how many recoveries found the
    #: clean-shutdown marker; ``request_retry`` carries the retry
    #: ``count``.  Empty when the trace holds no durability events.
    durability: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: SLO grading of the trace's ``service_request`` outcomes (the
    #: :func:`repro.obs.slo.evaluate_outcomes` dict), present when the
    #: trace holds service events.
    slo: Optional[Dict[str, Any]] = None
    #: Batched traffic-campaign accounting, rebuilt from
    #: ``traffic_sweep`` / ``saturation_point`` events.  Keys are
    #: ``view/kernel/pattern`` triples; each entry carries the swept
    #: ``points``, total ``offered`` and ``delivered`` packets, the
    #: ``peak_throughput`` over the curve (packets/cycle), the worst
    #: ``p99`` latency seen, and — once the sweep's
    #: ``saturation_point`` event lands — ``saturation_rate`` and
    #: ``saturation_throughput`` (rate ``-1`` means even the lowest
    #: swept rate saturated).  Empty when the trace holds no traffic
    #: events.
    routing: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready view (``repro obs summarize --json``) whose
        numeric leaves feed :func:`repro.obs.compare.compare_runs`."""
        return {
            "path": self.path,
            "events_total": self.events_total,
            "by_name": dict(self.by_name),
            "phase_seconds": dict(self.phase_seconds),
            "service_latency": {
                op: dict(pct) for op, pct in self.service_latency.items()
            },
            "durability": {
                name: dict(entry) for name, entry in self.durability.items()
            },
            "routing": {
                key: dict(entry) for key, entry in self.routing.items()
            },
            "slo": dict(self.slo) if self.slo is not None else None,
            "runs": [
                {
                    "label": r.label(),
                    "epochs": len(r.epochs),
                    "recovery_rounds": r.recovery_rounds,
                    "rounds": r.rounds,
                    "executed_rounds": r.executed_rounds,
                    "messages": r.messages,
                    "heartbeats": r.heartbeats,
                    "dropped": r.dropped,
                    "duplicated": r.duplicated,
                }
                for r in self.runs
            ],
        }

    def run(self, **labels: Any) -> RunReport:
        """The unique run whose labels include ``labels``.

        Raises :class:`~repro.errors.ObservabilityError` when no run or
        more than one run matches.
        """
        wanted = {(str(k), str(v)) for k, v in labels.items()}
        matches = [r for r in self.runs if wanted <= set(r.key)]
        if len(matches) != 1:
            raise ObservabilityError(
                f"{len(matches)} runs match {labels!r} in {self.path} "
                f"(runs: {[r.label() for r in self.runs]})"
            )
        return matches[0]


def summarize_trace(
    path: str, slo_config: Optional[SLOConfig] = None
) -> TraceSummary:
    """Read, validate, and summarize an event-log JSONL file.

    ``slo_config`` grades the trace's ``service_request`` outcomes into
    :attr:`TraceSummary.slo` (defaults to :class:`SLOConfig`'s
    defaults); traces without service events get ``slo=None``.
    """
    tally: TallyCounter = TallyCounter()
    reports: Dict[Tuple[Tuple[str, str], ...], RunReport] = {}
    phase_started: Dict[str, float] = {}
    phase_seconds: Dict[str, float] = {}
    request_latencies: Dict[str, List[float]] = {}
    request_errors: TallyCounter = TallyCounter()
    request_outcomes: List[Tuple[bool, float]] = []
    durable_latencies: Dict[str, List[float]] = {}
    durable_bytes: TallyCounter = TallyCounter()
    recoveries: List[Mapping[str, Any]] = []
    routing: Dict[str, Dict[str, float]] = {}
    retries = 0
    total = 0
    for lineno, record in _iter_jsonl(path):
        try:
            validate_event_dict(record)
            _absorb_record(
                record,
                phase_started=phase_started,
                phase_seconds=phase_seconds,
                request_latencies=request_latencies,
                request_errors=request_errors,
                request_outcomes=request_outcomes,
                durable_latencies=durable_latencies,
                durable_bytes=durable_bytes,
                recoveries=recoveries,
                routing=routing,
                reports=reports,
            )
        except ObservabilityError as exc:
            raise ObservabilityError(f"{path}:{lineno}: {exc}") from exc
        except (TypeError, ValueError) as exc:
            # Schema validation checks presence, not types; a trace with
            # e.g. a string where a number belongs dies here with the
            # offending line, not a traceback.
            raise ObservabilityError(
                f"{path}:{lineno}: bad field value in "
                f"{record['name']!r} event: {exc}"
            ) from exc
        total += 1
        tally[record["name"]] += 1
        if record["name"] == "request_retry":
            retries += 1
    for report in reports.values():
        report.epochs.sort(key=lambda e: e.epoch)
        _check_consistency(path, report)
    runs = [reports[k] for k in sorted(reports)]
    service_latency = {
        op: latency_percentiles(samples, errors=request_errors[op])
        for op, samples in sorted(request_latencies.items())
    }
    durability: Dict[str, Dict[str, float]] = {
        name: {
            **latency_percentiles(samples),
            "bytes": float(durable_bytes[name]),
        }
        for name, samples in sorted(durable_latencies.items())
    }
    if recoveries:
        durability["recovery_replay"] = {
            "count": float(len(recoveries)),
            "replayed": float(sum(int(r["replayed"]) for r in recoveries)),
            "clean": float(sum(1 for r in recoveries if r["clean"])),
        }
    if retries:
        durability["request_retry"] = {"count": float(retries)}
    slo = (
        evaluate_outcomes(request_outcomes, slo_config or SLOConfig())
        if request_outcomes
        else None
    )
    return TraceSummary(
        path=path,
        events_total=total,
        by_name=dict(tally),
        runs=runs,
        phase_seconds=phase_seconds,
        service_latency=service_latency,
        durability=durability,
        slo=slo,
        routing=routing,
    )


def _absorb_record(
    record: Mapping[str, Any],
    *,
    phase_started: Dict[str, float],
    phase_seconds: Dict[str, float],
    request_latencies: Dict[str, List[float]],
    request_errors: TallyCounter,
    request_outcomes: List[Tuple[bool, float]],
    durable_latencies: Dict[str, List[float]],
    durable_bytes: TallyCounter,
    recoveries: List[Mapping[str, Any]],
    routing: Dict[str, Dict[str, float]],
    reports: Dict[Tuple[Tuple[str, str], ...], RunReport],
) -> None:
    """Fold one validated record into the accumulators.

    Raises plain ``ValueError``/``TypeError`` on mis-typed fields; the
    caller rewraps them with the line number.
    """
    name = record["name"]
    fields = record["fields"]
    if name == "phase_transition":
        phase = str(fields["phase"])
        if fields["status"] == "start":
            phase_started[phase] = float(record["t"])
        elif phase in phase_started:
            elapsed = float(record["t"]) - phase_started.pop(phase)
            phase_seconds[phase] = phase_seconds.get(phase, 0.0) + elapsed
        return
    if name == "service_request":
        op = str(fields["op"])
        latency_us = float(fields["latency_us"])
        ok = bool(fields["ok"])
        request_latencies.setdefault(op, []).append(latency_us)
        request_outcomes.append((ok, latency_us))
        if not ok:
            request_errors[op] += 1
        return
    if name in ("wal_append", "snapshot_write"):
        durable_latencies.setdefault(name, []).append(
            float(fields["latency_us"])
        )
        durable_bytes[name] += int(fields["bytes"])
        return
    if name == "recovery_replay":
        recoveries.append(fields)
        return
    if name in ("traffic_sweep", "saturation_point"):
        key = (
            f"{fields['view']}/{fields['kernel']}/{fields['pattern']}"
        )
        entry = routing.setdefault(
            key,
            {
                "points": 0.0,
                "offered": 0.0,
                "delivered": 0.0,
                "peak_throughput": 0.0,
                "worst_p99": 0.0,
            },
        )
        if name == "traffic_sweep":
            entry["points"] += 1.0
            entry["offered"] += float(int(fields["packets"]))
            entry["delivered"] += float(int(fields["delivered"]))
            entry["peak_throughput"] = max(
                entry["peak_throughput"], float(fields["throughput"])
            )
            p99 = float(fields["p99"])
            if not math.isnan(p99):
                entry["worst_p99"] = max(entry["worst_p99"], p99)
        else:
            entry["saturation_rate"] = float(fields["rate"])
            entry["saturation_throughput"] = float(fields["throughput"])
        return
    if name not in ("epoch_end", "run_end"):
        return
    key = _run_key(fields)
    report = reports.get(key)
    if report is None:
        report = reports[key] = RunReport(key=key)
    if name == "epoch_end":
        report.epochs.append(
            EpochReport(
                epoch=int(fields["epoch"]),
                at_time=int(fields["at_time"]),
                crashed=tuple((int(x), int(y)) for x, y in fields["crashed"]),
                rounds=int(fields["rounds"]),
                executed_rounds=int(fields["executed_rounds"]),
                messages=int(fields["messages"]),
                dropped=int(fields["dropped"]),
                duplicated=int(fields["duplicated"]),
            )
        )
    else:
        report.rounds = int(fields["rounds"])
        report.executed_rounds = int(fields["executed_rounds"])
        report.messages = int(fields["messages"])
        report.heartbeats = int(fields["heartbeats"])
        report.dropped = int(fields["dropped"])
        report.duplicated = int(fields["duplicated"])


def _run_key(fields: Mapping[str, Any]) -> Tuple[Tuple[str, str], ...]:
    return tuple(
        (k, str(fields[k])) for k in _RUN_LABELS if k in fields
    )


def _check_consistency(path: str, report: RunReport) -> None:
    """Epoch message sums must agree with the run total when both exist.

    Only ``messages`` is cross-checked: executed-round accounting differs
    by engine (the asynchronous engine reports a single aggregate entry
    in ``changes_per_round`` while its epochs count per-delivery steps),
    so round sums are engine-specific and not an invariant of the trace.
    """
    if report.messages is None or not report.epochs:
        return
    epoch_messages = sum(e.messages for e in report.epochs)
    if epoch_messages != report.messages:
        raise ObservabilityError(
            f"{path}: run {report.label()} is inconsistent: epochs sum to "
            f"{epoch_messages} messages but run_end reports {report.messages}"
        )


def format_summary(summary: TraceSummary) -> str:
    """The plain-text report ``repro obs summarize`` prints."""
    lines: List[str] = [
        f"{summary.path}: {summary.events_total} events",
        "",
    ]
    for name in sorted(summary.by_name):
        lines.append(f"  {name:>18}: {summary.by_name[name]}")
    if summary.phase_seconds:
        lines.append("")
        lines.append("phase timings:")
        for phase in sorted(summary.phase_seconds):
            lines.append(
                f"  {phase:>18}: {1e3 * summary.phase_seconds[phase]:.2f} ms"
            )
    if summary.service_latency:
        lines.append("")
        lines.append("service request latency (us):")
        for op, pct in summary.service_latency.items():
            lines.append(
                f"  {op:>18}: n={int(pct['count'])} errors={int(pct['errors'])} "
                f"p50={pct['p50']:.1f} p90={pct['p90']:.1f} "
                f"p99={pct['p99']:.1f} max={pct['max']:.1f}"
            )
    if summary.slo is not None:
        s = summary.slo
        cfg = s["config"]
        lines.append("")
        lines.append(f"slo: {'OK' if s['ok'] else 'VIOLATED'}")
        lines.append(
            f"  availability: {s['availability']:.4f} "
            f"(target {cfg['availability_target']}) "
            f"[{'ok' if s['availability_ok'] else 'VIOLATED'}]"
        )
        lines.append(
            f"  error budget: {s['error_budget_spent']:.1f} spent of "
            f"{s['error_budget_total']:.1f} "
            f"({int(s['errors'])} errors in {int(s['count'])} requests)"
        )
        lines.append(
            f"  latency p{100 * cfg['latency_quantile']:g}: "
            f"{s['latency_quantile_us']:.1f} us "
            f"(objective {cfg['latency_objective_us']:g} us) "
            f"[{'ok' if s['latency_ok'] else 'VIOLATED'}]"
        )
    if summary.routing:
        lines.append("")
        lines.append("routing (traffic campaigns):")
        for key in sorted(summary.routing):
            entry = summary.routing[key]
            sat = entry.get("saturation_rate")
            sat_txt = (
                "unsaturated"
                if sat is None
                else ("saturated at lowest rate" if sat < 0 else f"sat@{sat:g}/cyc")
            )
            lines.append(
                f"  {key}: {int(entry['points'])} points, "
                f"{int(entry['delivered'])}/{int(entry['offered'])} delivered, "
                f"peak {entry['peak_throughput']:.2f} pkt/cyc, "
                f"worst p99 {entry['worst_p99']:.0f} cyc, {sat_txt}"
            )
    if summary.durability:
        lines.append("")
        lines.append("durability:")
        for name, entry in summary.durability.items():
            if "p50" in entry:
                lines.append(
                    f"  {name:>18}: n={int(entry['count'])} "
                    f"p50={entry['p50']:.1f} p99={entry['p99']:.1f} "
                    f"max={entry['max']:.1f} us, "
                    f"{int(entry['bytes'])} bytes"
                )
            else:
                parts = " ".join(
                    f"{k}={int(v)}" for k, v in sorted(entry.items())
                )
                lines.append(f"  {name:>18}: {parts}")
    for report in summary.runs:
        lines.append("")
        header = f"run [{report.label()}]"
        if report.rounds is not None:
            header += (
                f": {report.rounds} rounds, {report.messages} messages, "
                f"{report.heartbeats} heartbeats, {report.dropped} dropped, "
                f"{report.duplicated} duplicated"
            )
        lines.append(header)
        if report.epochs:
            lines.append(
                f"  {len(report.epochs)} epochs, "
                f"{report.recovery_rounds} recovery rounds:"
            )
            for ep in report.epochs:
                crashed = (
                    "initial"
                    if not ep.crashed
                    else "crash " + " ".join(f"{x},{y}" for x, y in ep.crashed)
                )
                lines.append(
                    f"    epoch {ep.epoch} t={ep.at_time:>4} {crashed}: "
                    f"{ep.rounds} rounds, {ep.messages} messages, "
                    f"{ep.dropped} dropped"
                )
    return "\n".join(lines)
