"""The in-process service API: instrumented updates over the engine.

Pins the service's three contracts: answers equal from-scratch labeling
(delegated to the engine, spot-checked here), ``stats()`` reports the
real operational counters, and telemetry artefacts produced by a traced
service validate against the event schemas and summarize into per-op
percentiles.
"""

import numpy as np
import pytest

from repro.core import SafetyDefinition, label_mesh
from repro.core.status import NodeStatus
from repro.faults import FaultSet
from repro.mesh import Mesh2D, Torus2D
from repro.obs import JSONLSink, MetricsRegistry, Telemetry, latency_percentiles
from repro.obs.events import validate_jsonl
from repro.service import LabelingService

FAULTS = [(3, 3), (3, 4), (4, 3)]


def test_initial_faults_are_absorbed():
    service = LabelingService(Mesh2D(16, 16), faults=FAULTS)
    assert service.engine.num_faults == 3
    assert service.version == 1
    assert service.verify_against_scratch()


def test_update_inject_and_repair_round_trip():
    service = LabelingService(Mesh2D(16, 16), faults=FAULTS)
    before = service.engine.labels
    delta = service.update(inject=[(10, 10)])
    assert delta.injected == ((10, 10),)
    assert service.status_of((10, 10)) is NodeStatus.FAULTY
    delta = service.update(repair=[(10, 10)])
    assert delta.repaired == ((10, 10),)
    after = service.engine.labels
    assert np.array_equal(before.unsafe, after.unsafe)
    assert np.array_equal(before.enabled, after.enabled)
    assert service.verify_against_scratch()


def test_snapshot_equals_label_mesh():
    service = LabelingService(Mesh2D(20, 20), SafetyDefinition.DEF_2A, faults=FAULTS)
    snap = service.snapshot()
    scratch = label_mesh(
        Mesh2D(20, 20),
        FaultSet.from_coords((20, 20), FAULTS),
        SafetyDefinition.DEF_2A,
    )
    assert np.array_equal(snap.labels.unsafe, scratch.labels.unsafe)
    assert snap.blocks == scratch.blocks
    assert snap.regions == scratch.regions


def test_torus_is_supported():
    service = LabelingService(Torus2D(12, 12), faults=[(0, 0), (11, 0), (0, 11)])
    assert service.verify_against_scratch()
    service.update(repair=[(11, 0)])
    assert service.verify_against_scratch()


def test_stats_reports_real_counters():
    service = LabelingService(Mesh2D(16, 16), faults=FAULTS)
    service.update(inject=[(10, 10)])
    service.update(repair=[(10, 10)])
    stats = service.stats()
    assert stats["topology"] == {"kind": "mesh", "width": 16, "height": 16}
    assert stats["definition"] == "2b"
    assert stats["faults"] == 3
    assert stats["updates"] == 3
    assert stats["version"] == service.version
    assert stats["blocks"] == service.engine.num_blocks
    assert stats["cache"]["entries"] >= 1
    lat = stats["update_latency_us"]
    assert lat["count"] == 3.0
    assert 0 < lat["p50"] <= lat["p90"] <= lat["p99"] <= lat["max"]


def test_latency_window_is_bounded():
    service = LabelingService(Mesh2D(16, 16), latency_window=4)
    for _ in range(10):
        service.update()
    assert service.stats()["update_latency_us"]["count"] == 4.0


def test_traced_service_artefacts_validate(tmp_path):
    trace = tmp_path / "service.jsonl"
    metrics = MetricsRegistry()
    telemetry = Telemetry(sinks=[JSONLSink(str(trace))], metrics=metrics)
    service = LabelingService(Mesh2D(16, 16), faults=FAULTS, telemetry=telemetry)
    service.update(inject=[(9, 9)])
    service.update(repair=[(9, 9)])
    telemetry.close()
    assert validate_jsonl(str(trace)) == 3  # initial build + 2 deltas
    hists = metrics.snapshot()["histograms"]
    latency = [v for k, v in hists.items() if "service_update_latency_us" in k]
    assert latency and latency[0]["count"] == 3


def test_latency_percentiles_nearest_rank():
    samples = [float(v) for v in range(1, 101)]
    pct = latency_percentiles(samples, errors=2)
    assert pct == {
        "count": 100.0,
        "errors": 2.0,
        "p50": 50.0,
        "p90": 90.0,
        "p99": 99.0,
        "max": 100.0,
    }
    assert latency_percentiles([])["count"] == 0.0


def test_latency_percentiles_empty_window_is_all_zeros():
    pct = latency_percentiles([])
    assert pct == {
        "count": 0.0, "errors": 0.0,
        "p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0,
    }


def test_latency_percentiles_single_sample_saturates_every_rank():
    pct = latency_percentiles([42.0])
    assert pct["p50"] == pct["p90"] == pct["p99"] == pct["max"] == 42.0
    assert pct["count"] == 1.0


def test_latency_percentiles_all_error_op_keeps_error_count():
    # An op whose every request failed has no latency samples but must
    # still report its errors.
    pct = latency_percentiles([], errors=7)
    assert pct["count"] == 0.0 and pct["errors"] == 7.0
    assert pct["p99"] == 0.0 and pct["max"] == 0.0


def test_stats_carries_the_slo_evaluation():
    from repro.obs import SLOConfig

    service = LabelingService(
        Mesh2D(16, 16),
        faults=FAULTS,
        slo=SLOConfig(window=8, availability_target=0.5),
    )
    for _ in range(3):
        service.record_request(True, 100.0)
    service.record_request(False, 0.0)
    slo = service.stats()["slo"]
    assert slo["count"] == 4 and slo["errors"] == 1
    assert slo["config"]["window"] == 8
    assert slo["availability_ok"] is True  # 0.75 >= 0.5
    assert slo["total"] == 4
