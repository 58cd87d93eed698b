"""Telemetry integration at the pipeline, kernel, and sweep layers."""

import numpy as np
import pytest

from repro.analysis.sweep import sweep
from repro.core.incremental import IncrementalLabeling
from repro.core.pipeline import label_mesh
from repro.faults import FaultSet
from repro.mesh import Mesh2D
from repro.obs import MemorySink, MetricsRegistry, SpanRecorder, Telemetry

FAULTS = [(2, 2), (2, 3), (3, 2), (3, 3)]


def _faults(topo):
    return FaultSet.from_coords(topo.shape, FAULTS)


class TestPipelineTelemetry:
    @pytest.mark.parametrize("backend", ["vectorized", "distributed"])
    def test_phase_transitions_emitted(self, backend):
        sink = MemorySink()
        topo = Mesh2D(10, 10)
        result = label_mesh(
            topo, _faults(topo), backend=backend,
            telemetry=Telemetry(sinks=(sink,)),
        )
        events = sink.events("phase_transition")
        assert [(e.fields["phase"], e.fields["status"]) for e in events] == [
            ("unsafe", "start"),
            ("unsafe", "end"),
            ("enable", "start"),
            ("enable", "end"),
            ("extract_blocks", "start"),
            ("extract_blocks", "end"),
            ("extract_regions", "start"),
            ("extract_regions", "end"),
        ]
        ends = {e.fields["phase"]: e.fields for e in events
                if e.fields["status"] == "end"}
        assert ends["unsafe"]["rounds"] == result.rounds_phase1
        assert ends["enable"]["rounds"] == result.rounds_phase2
        assert ends["extract_blocks"]["count"] == len(result.blocks)
        assert ends["extract_regions"]["count"] == len(result.regions)

    def test_phase_spans_recorded(self):
        rec = SpanRecorder()
        topo = Mesh2D(10, 10)
        label_mesh(topo, _faults(topo), telemetry=Telemetry(spans=rec))
        names = [e["name"] for e in rec.to_chrome_trace()["traceEvents"]]
        assert "phase_unsafe" in names and "phase_enable" in names

    def test_distributed_backend_engine_spans_nest(self):
        rec = SpanRecorder()
        topo = Mesh2D(10, 10)
        label_mesh(
            topo,
            _faults(topo),
            backend="distributed",
            telemetry=Telemetry(spans=rec),
        )
        events = rec.to_chrome_trace()["traceEvents"]
        names = {e["name"] for e in events}
        assert {"phase_unsafe", "phase_enable", "engine_round"} <= names

    def test_results_identical_with_and_without_telemetry(self):
        topo = Mesh2D(10, 10)
        plain = label_mesh(topo, _faults(topo))
        traced = label_mesh(topo, _faults(topo), telemetry=Telemetry.null())
        assert np.array_equal(plain.labels.unsafe, traced.labels.unsafe)
        assert np.array_equal(plain.labels.enabled, traced.labels.enabled)
        assert plain.rounds_phase1 == traced.rounds_phase1
        assert plain.rounds_phase2 == traced.rounds_phase2


class TestFrontierTelemetry:
    def test_frontier_sizes_observed(self):
        # A small multi-cell delta runs the engine's per-cell wave; the
        # diagonal pair flips its two shared neighbours in one round.
        reg = MetricsRegistry()
        engine = IncrementalLabeling(Mesh2D(10, 10), telemetry=Telemetry(metrics=reg))
        report = engine.inject([(2, 2), (3, 3)])
        assert report.rounds_phase1 == 1
        hist = reg.histogram("frontier_active_cells")
        # One observation per executed round, including the quiescent one.
        assert hist.count == report.rounds_phase1 + 1
        assert hist.min is not None and hist.min >= 1

    def test_pipeline_routes_phase_labels_to_kernels(self):
        # The packed kernels take no telemetry, so a vectorized run
        # observes no frontier sizes (only the engine's per-cell wave does);
        # the fabric engines get phase-labeled children.
        topo = Mesh2D(10, 10)
        keys = {}
        for backend in ("vectorized", "distributed"):
            reg = MetricsRegistry()
            label_mesh(
                topo, _faults(topo), backend=backend,
                telemetry=Telemetry(metrics=reg),
            )
            keys[backend] = set(reg.snapshot()["histograms"])
        assert not any("frontier_active_cells" in k for k in keys["vectorized"])
        assert 'engine_flips_per_round{engine="sync",phase="unsafe"}' in keys["distributed"]
        assert 'engine_flips_per_round{engine="sync",phase="enable"}' in keys["distributed"]


def _metric_ok(value, rng):
    return {"m": float(value) + float(rng.integers(0, 2))}


def _metric_fails_on_two(value, rng):
    if value == 2:
        raise RuntimeError("boom")
    return {"m": float(value)}


class TestSweepTelemetry:
    def test_cell_events_and_counters(self):
        sink = MemorySink()
        reg = MetricsRegistry()
        tel = Telemetry(sinks=(sink,), metrics=reg)
        sweep([1, 2], _metric_ok, trials=3, seed=0, telemetry=tel)
        cells = sink.events("sweep_cell")
        assert len(cells) == 6
        assert all(e.fields["ok"] for e in cells)
        assert [e.fields["value"] for e in cells] == [1, 1, 1, 2, 2, 2]
        assert [e.fields["trial"] for e in cells] == [0, 1, 2, 0, 1, 2]
        assert all("metrics" in e.fields for e in cells)
        snap = reg.snapshot()["counters"]
        assert snap["sweep_cells_total"] == 6
        assert snap["sweep_cell_failures_total"] == 0

    def test_failures_captured_with_context(self):
        sink = MemorySink()
        reg = MetricsRegistry()
        tel = Telemetry(sinks=(sink,), metrics=reg)
        points = sweep([1, 2], _metric_fails_on_two, trials=2, seed=0, telemetry=tel)
        failed = [e for e in sink.events("sweep_cell") if not e.fields["ok"]]
        assert len(failed) == 2
        assert all(e.fields["value"] == 2 for e in failed)
        assert all("RuntimeError: boom" in e.fields["error"] for e in failed)
        assert reg.snapshot()["counters"]["sweep_cell_failures_total"] == 2
        # Telemetry must not change the sweep result itself.
        assert points == sweep([1, 2], _metric_fails_on_two, trials=2, seed=0)

    def test_parallel_sweep_logs_in_serial_order(self):
        serial_sink, parallel_sink = MemorySink(), MemorySink()
        sweep([1, 2], _metric_ok, trials=2, seed=0,
              telemetry=Telemetry(sinks=(serial_sink,)))
        sweep([1, 2], _metric_ok, trials=2, seed=0, jobs=2,
              telemetry=Telemetry(sinks=(parallel_sink,)))
        strip = lambda events: [
            {k: v for k, v in e.fields.items()} for e in events
        ]
        assert strip(serial_sink.events("sweep_cell")) == strip(
            parallel_sink.events("sweep_cell")
        )

    def test_serial_sweep_spans_per_cell(self):
        rec = SpanRecorder()
        sweep([1], _metric_ok, trials=3, seed=0, telemetry=Telemetry(spans=rec))
        names = [e["name"] for e in rec.to_chrome_trace()["traceEvents"]]
        assert names.count("sweep_cell") == 3
