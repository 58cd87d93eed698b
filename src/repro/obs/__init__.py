"""Observability: structured events, metrics, and span profiling.

The paper's empirical story is entirely about *measuring* the
distributed labeling protocol (Figure 5: rounds and enabled ratios as
functions of the fault count), and the dynamic-fault work of this
repository made the runs worth measuring even richer: epochs, channel
loss, heartbeat repair.  This package turns the previously ad-hoc
instrumentation into one subsystem with three legs:

* **structured events** (:mod:`repro.obs.events`,
  :mod:`repro.obs.sinks`) — typed, timestamped records (``round_start``,
  ``node_flip``, ``crash_batch``, ``message_dropped``, ``heartbeat``,
  ``epoch_end``, ``phase_transition``, ...) emitted by both fabric
  engines, the channel model, the labeling pipeline and the sweep
  harness, fanned out to pluggable sinks (in-memory ring buffer, JSONL
  file, null);
* a **metrics registry** (:mod:`repro.obs.metrics`) — labeled counters,
  gauges and histograms whose snapshot agrees bit-for-bit with the
  engines' :class:`~repro.fabric.stats.RunStats` (property tested);
* **span profiling** (:mod:`repro.obs.spans`) — nested wall-clock spans
  around phases, kernels, engine rounds and sweep cells, exportable as
  Chrome ``trace_event`` JSON viewable in ``chrome://tracing`` or
  Perfetto, and stitchable across processes (client + server of one
  request on one timeline).

On top of those sit the *live* legs added for the serving stack:
**metrics exposition** (:mod:`repro.obs.exposition`) — Prometheus
text-format rendering plus the ``/metrics`` / ``/healthz`` / ``/readyz``
/ ``/varz`` admin endpoint; **SLO evaluation** (:mod:`repro.obs.slo`) —
rolling-window latency/error-budget grading of request outcomes; and
**cross-run comparison** (:mod:`repro.obs.compare`) — regression
reports between two run artifacts (``repro obs compare``).

The :class:`~repro.obs.telemetry.Telemetry` facade bundles the three
legs; every instrumented call site is guarded by a ``telemetry is not
None`` check, so the disabled path is a no-op (the perf baseline pins
the telemetry-off pipeline to < 2% overhead).  See
``docs/observability.md`` for schemas and the export how-to.
"""

from repro._lazy import lazy_exports

__all__ = [
    "AdminServer",
    "Counter",
    "EVENT_SCHEMAS",
    "EpochReport",
    "Event",
    "EventSink",
    "Gauge",
    "Histogram",
    "JSONLSink",
    "MemorySink",
    "MetricDelta",
    "MetricsRegistry",
    "NullSink",
    "SLOConfig",
    "SLOTracker",
    "SpanRecorder",
    "Telemetry",
    "TraceSummary",
    "compare_runs",
    "evaluate_outcomes",
    "flatten_numeric",
    "format_compare",
    "latency_percentiles",
    "load_chrome_trace",
    "load_run_artifact",
    "nearest_rank",
    "parse_prometheus",
    "render_prometheus",
    "snapshot_event",
    "stitch_chrome_traces",
    "summarize_trace",
    "validate_event",
    "validate_event_dict",
    "validate_jsonl",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "compare": (
        "MetricDelta", "compare_runs", "flatten_numeric", "format_compare",
        "load_run_artifact",
    ),
    "events": (
        "EVENT_SCHEMAS", "Event", "snapshot_event", "validate_event",
        "validate_event_dict", "validate_jsonl",
    ),
    "exposition": ("AdminServer", "parse_prometheus", "render_prometheus"),
    "metrics": (
        "Counter", "Gauge", "Histogram", "MetricsRegistry",
        "latency_percentiles", "nearest_rank",
    ),
    "sinks": ("EventSink", "JSONLSink", "MemorySink", "NullSink"),
    "slo": ("SLOConfig", "SLOTracker", "evaluate_outcomes"),
    "spans": ("SpanRecorder", "load_chrome_trace", "stitch_chrome_traces"),
    "summarize": ("EpochReport", "TraceSummary", "summarize_trace"),
    "telemetry": ("Telemetry",),
})
