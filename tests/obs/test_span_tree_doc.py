"""The span tree in docs/observability.md matches what the library records.

The tree is parsed from the doc into ``(span, parent)`` edges and
compared with the edges recorded by traced runs of every instrumented
entry point: ``label_mesh`` on both execution backends, a serial and a
parallel ``sweep``, and a served update and snapshot (client attempt
spans on one recorder, ``handle_request`` spans on the server's).
"""

import pathlib
import re

from repro.analysis.sweep import sweep
from repro.core.pipeline import label_mesh
from repro.faults import FaultSet
from repro.mesh import Mesh2D
from repro.obs import SpanRecorder, Telemetry
from repro.service import LabelingServer, LabelingService, ServiceClient

DOC = pathlib.Path(__file__).resolve().parents[2] / "docs" / "observability.md"


def _metric(value, rng):
    return {"x": float(rng.random())}


def _doc_edges():
    """``(name, parent)`` pairs of the documented tree; roots have
    parent ``None``.  Each tree level indents by four columns."""
    block = DOC.read_text().split("The span hierarchy:", 1)[1].split("```", 2)[1]
    edges = set()
    stack = []
    for line in block.strip("\n").splitlines():
        m = re.search(r"[a-z_]+", line)
        del stack[m.start() // 4 :]
        edges.add((m.group(), stack[-1] if stack else None))
        stack.append(m.group())
    return edges


def _recorded_edges(recorder):
    """``(name, parent)`` pairs, the parent being the innermost span
    whose interval contains the child's."""
    spans = sorted(
        (e for e in recorder.to_chrome_trace()["traceEvents"] if e["ph"] == "X"),
        key=lambda e: (e["ts"], -e["dur"]),
    )
    edges = set()
    stack = []
    for e in spans:
        end = e["ts"] + e["dur"]
        while stack and end > stack[-1]["ts"] + stack[-1]["dur"]:
            stack.pop()
        edges.add((e["name"], stack[-1]["name"] if stack else None))
        stack.append(e)
    return edges


def _traced_runs():
    rec = SpanRecorder()
    tel = Telemetry(spans=rec)
    topo = Mesh2D(10, 10)
    faults = FaultSet.from_coords(topo.shape, [(2, 2), (3, 3), (6, 5)])
    for backend in ("vectorized", "distributed"):
        label_mesh(topo, faults, backend=backend, telemetry=tel)
    sweep([1, 2], _metric, trials=2, telemetry=tel)
    sweep([1, 2], _metric, trials=2, jobs=2, telemetry=tel)

    # As in `repro serve`: the service and its server share one telemetry.
    server_rec = SpanRecorder("server")
    server_tel = Telemetry(spans=server_rec)
    server = LabelingServer(
        LabelingService(Mesh2D(8, 8), telemetry=server_tel),
        conn_timeout=5.0,
        telemetry=server_tel,
    )
    thread = server.serve_in_thread()
    try:
        host, port = server.address
        with ServiceClient.connect_tcp(host, port, telemetry=tel) as client:
            client.update(inject=[(1, 1)])
            client.snapshot()
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.close()
    return _recorded_edges(rec) | _recorded_edges(server_rec)


def test_doc_span_tree_matches_recorded_spans():
    documented = _doc_edges()
    recorded = _traced_runs()
    assert recorded == documented, (
        f"recorded but undocumented: {sorted(recorded - documented, key=str)}; "
        f"documented but never recorded: {sorted(documented - recorded, key=str)}"
    )
