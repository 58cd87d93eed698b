"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestErrorBoundary:
    """Library errors exit 2 with one line on stderr, not a traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["label", "--size", "0"], "label: dimensions must be positive, got 0x0"),
            (["fig5", "--trials", "0"], "fig5: need at least one trial, got 0"),
            (["route", "--size", "0"], "route: dimensions must be positive, got 0x0"),
            (
                ["density", "--size", "10", "--trials", "0"],
                "density: need at least one trial, got 0",
            ),
            (
                ["partition", "--size", "4", "--faults", "100"],
                "partition: cannot place 100 faults on 16 nodes",
            ),
            (
                ["serve", "--size", "0", "--port", "0"],
                "serve: dimensions must be positive, got 0x0",
            ),
        ],
    )
    def test_one_line_exit_2(self, argv, message, capsys):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err == message + "\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["label", "--shard", "auto"],
            ["label", "--jobs", "2"],
            ["fig5", "--shard", "auto"],
        ],
    )
    def test_removed_flags_unrecognized(self, argv, capsys):
        # argparse prints usage and raises instead of returning 2.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.endswith(
            "error: unrecognized arguments: " + " ".join(argv[1:])
        )

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--port", "-1"),
            ("--port", "70000"),
            ("--port", "http"),
            ("--admin-port", "65536"),
        ],
    )
    def test_port_out_of_range(self, flag, value, capsys):
        # Rejected by argparse: usage plus one error line, exit 2, and
        # never the socket layer's OverflowError traceback.
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--size", "4", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].endswith(
            f"error: argument {flag}: port must be 0-65535, got {value}"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["route", "--pairs", "0"], "--pairs: must be a positive integer, got 0"),
            (["route", "--pairs", "-1"], "--pairs: must be a positive integer, got -1"),
            (["fig5", "--f-step", "0"], "--f-step: must be a positive integer, got 0"),
            (["fig5", "--f-step", "-5"], "--f-step: must be a positive integer, got -5"),
            (
                ["fig5", "--f-max", "-1"],
                "--f-max: must be a non-negative integer, got -1",
            ),
        ],
    )
    def test_bad_counts_rejected(self, argv, message, capsys):
        # Rejected by argparse before any work is done.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert err.splitlines()[-1] == f"repro {argv[0]}: error: argument {message}"


class TestLabelCommand:
    def test_basic_run(self, capsys):
        rc = main(["label", "--size", "16", "--faults", "8", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "num_blocks" in out and "enabled_ratio" in out

    def test_verify_flag(self, capsys):
        rc = main(
            ["label", "--size", "16", "--faults", "8", "--seed", "1", "--verify"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "[ok ] theorem 1" in out

    def test_definition_and_backend_options(self, capsys):
        rc = main(
            [
                "label",
                "--size",
                "12",
                "--faults",
                "5",
                "--definition",
                "2a",
                "--backend",
                "distributed",
                "--no-art",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "definition: 2a" in out
        assert "backend: distributed" in out

    def test_torus_and_clustered(self, capsys):
        rc = main(
            ["label", "--size", "16", "--faults", "10", "--torus", "--clustered"]
        )
        assert rc == 0

    def test_svg_export(self, tmp_path, capsys):
        target = tmp_path / "out.svg"
        rc = main(
            ["label", "--size", "10", "--faults", "4", "--svg", str(target)]
        )
        assert rc == 0
        assert target.read_text().startswith("<?xml")


class TestOtherCommands:
    def test_fig5_small(self, capsys):
        rc = main(
            [
                "fig5",
                "--size",
                "20",
                "--trials",
                "2",
                "--f-max",
                "10",
                "--f-step",
                "5",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "rounds(FB)" in out

    def test_route(self, capsys):
        rc = main(
            ["route", "--size", "16", "--faults", "10", "--pairs", "30", "--seed", "2"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "bfs-oracle" in out and "f-ring" in out

    def test_route_rejects_torus(self, capsys):
        rc = main(["route", "--size", "16", "--torus"])
        assert rc == 2

    def test_density(self, capsys):
        rc = main(
            [
                "density",
                "--size",
                "16",
                "--trials",
                "2",
                "--densities",
                "0.0",
                "0.05",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "largest blk" in out

    def test_partition(self, capsys):
        rc = main(["partition", "--size", "16", "--faults", "6", "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "single polygon" in out

    def test_partition_no_faults(self, capsys):
        rc = main(["partition", "--size", "8", "--faults", "0"])
        assert rc == 0
        assert "no faults" in capsys.readouterr().out


class TestLabelTelemetryFlags:
    def _label(self, tmp_path, *extra):
        return main(
            [
                "label", "--size", "12", "--faults", "6", "--seed", "1",
                "--backend", "distributed", "--no-art",
                "--fault-schedule", "3:4,4",
                *extra,
            ]
        )

    def test_trace_out_is_valid_jsonl(self, tmp_path, capsys):
        from repro.obs import validate_jsonl

        trace = tmp_path / "trace.jsonl"
        assert self._label(tmp_path, "--trace-out", str(trace)) == 0
        assert validate_jsonl(str(trace)) > 0

    def test_metrics_out(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        assert self._label(tmp_path, "--metrics-out", str(metrics)) == 0
        snap = json.loads(metrics.read_text())
        assert any(k.startswith("engine_messages_total") for k in snap["counters"])

    def test_spans_out_is_valid_chrome_trace(self, tmp_path, capsys):
        from repro.obs import load_chrome_trace

        spans = tmp_path / "spans.json"
        assert self._label(tmp_path, "--spans-out", str(spans)) == 0
        data = load_chrome_trace(str(spans))
        assert any(e["name"] == "phase_unsafe" for e in data["traceEvents"])

    def test_stats_out(self, tmp_path, capsys):
        stats = tmp_path / "stats.json"
        assert self._label(tmp_path, "--stats-out", str(stats)) == 0
        payload = json.loads(stats.read_text())
        assert payload["summary"]["backend"] == "distributed"
        phase1 = payload["stats_phase1"]
        assert phase1["total_messages"] == sum(phase1["messages_per_round"])
        assert len(phase1["epochs"]) == 2

    def test_debug_log_level_adds_node_flips(self, tmp_path, capsys):
        info = tmp_path / "info.jsonl"
        debug = tmp_path / "debug.jsonl"
        assert self._label(tmp_path, "--trace-out", str(info)) == 0
        assert (
            self._label(
                tmp_path, "--trace-out", str(debug), "--log-level", "debug"
            )
            == 0
        )
        names = lambda p: {
            json.loads(line)["name"] for line in p.read_text().splitlines()
        }
        assert "node_flip" not in names(info)
        assert "node_flip" in names(debug)


class TestServeCommand:
    def _serve_thread(self, argv):
        import threading

        result = {}

        def run():
            result["rc"] = main(argv)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return thread, result

    def test_serve_tcp_round_trip(self, tmp_path, capsys):
        import time

        from repro.service import ServiceClient

        trace = tmp_path / "serve.jsonl"
        thread, result = self._serve_thread(
            [
                "serve", "--size", "20", "--faults", "6", "--seed", "3",
                "--port", "0", "--max-requests", "3",
                "--trace-out", str(trace),
            ]
        )
        # The ephemeral port is printed on startup; poll the captured
        # stdout until the listening line appears.
        host = port = None
        for _ in range(200):
            out = capsys.readouterr().out
            for line in out.splitlines():
                if line.startswith("listening on "):
                    addr = line.split()[-1]
                    host, port = addr.rsplit(":", 1)
            if host is not None:
                break
            time.sleep(0.05)
        assert host is not None, "server never printed its address"
        with ServiceClient.connect_tcp(host, int(port)) as client:
            client.ping()
            assert client.update(inject=[(10, 10)])["injected"] == [[10, 10]]
            assert client.stats()["faults"] == 7
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert result["rc"] == 0

        from repro.obs import validate_jsonl

        assert validate_jsonl(str(trace)) > 0

    def test_serve_unix_socket(self, tmp_path, capsys):
        import os
        import socket as socket_module
        import time

        if not hasattr(socket_module, "AF_UNIX"):
            pytest.skip("no unix sockets on this platform")
        from repro.service import ServiceClient

        path = str(tmp_path / "repro.sock")
        thread, result = self._serve_thread(
            ["serve", "--size", "16", "--unix", path, "--max-requests", "2"]
        )
        for _ in range(200):
            if os.path.exists(path):
                break
            time.sleep(0.05)
        with ServiceClient.connect_unix(path) as client:
            client.update(inject=[(5, 5)])
            assert client.query_nodes([(5, 5)])[0]["status"] == "faulty"
        thread.join(timeout=10)
        assert result["rc"] == 0
        assert not os.path.exists(path)  # socket file cleaned up

    def _wait_for_address(self, capsys, collected=None):
        import time

        host = port = None
        lines = collected if collected is not None else []
        for _ in range(200):
            out = capsys.readouterr().out
            lines.extend(out.splitlines())
            for line in lines:
                if line.startswith("listening on "):
                    addr = line.split()[-1]
                    host, port = addr.rsplit(":", 1)
            if host is not None:
                return host, int(port)
            time.sleep(0.05)
        raise AssertionError("server never printed its address")

    def test_serve_durable_then_recover(self, tmp_path, capsys):
        from repro.service import ServiceClient

        wal_dir = str(tmp_path / "wal")
        base = [
            "serve", "--size", "16", "--port", "0",
            "--wal-dir", wal_dir, "--snapshot-every", "2",
        ]
        thread, result = self._serve_thread(base + ["--max-requests", "3"])
        host, port = self._wait_for_address(capsys)
        with ServiceClient.connect_tcp(host, port) as client:
            client.update(inject=[(3, 3)])
            client.update(inject=[(7, 7)])
            client.update(repair=[(3, 3)])
        thread.join(timeout=10)
        assert result["rc"] == 0

        # Restart over the same WAL directory: recovery replays the
        # snapshot + tail, verifies bit-for-bit, and keeps serving.
        thread, result = self._serve_thread(
            base + ["--recover", "--max-requests", "2"]
        )
        lines = []
        host, port = self._wait_for_address(capsys, lines)
        banner = [l for l in lines if l.startswith("recovered version ")]
        assert banner and "verified bit-for-bit" in banner[0]
        with ServiceClient.connect_tcp(host, port) as client:
            assert client.query_nodes([(7, 7)])[0]["status"] == "faulty"
            assert client.query_nodes([(3, 3)])[0]["status"] != "faulty"
        thread.join(timeout=10)
        assert result["rc"] == 0

    def test_serve_refuses_stale_wal_dir_without_recover(
        self, tmp_path, capsys
    ):
        from repro.core.status import SafetyDefinition
        from repro.mesh import Mesh2D
        from repro.service import LabelingService

        wal_dir = str(tmp_path / "wal")
        svc = LabelingService(Mesh2D(16, 16), wal_dir=wal_dir)
        svc.update(inject=[(1, 1)])
        svc.finalize()
        rc = main(
            ["serve", "--size", "16", "--port", "0", "--wal-dir", wal_dir]
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert "serve: " in err and "already holds durability state" in err

    def test_recover_requires_wal_dir(self, capsys):
        rc = main(["serve", "--size", "16", "--port", "0", "--recover"])
        assert rc == 2
        assert "serve: --recover needs --wal-dir" in capsys.readouterr().err

    def test_recover_wrong_topology_fails_loud(self, tmp_path, capsys):
        from repro.mesh import Mesh2D
        from repro.service import LabelingService

        wal_dir = str(tmp_path / "wal")
        svc = LabelingService(
            Mesh2D(16, 16), wal_dir=wal_dir, snapshot_every=1
        )
        svc.update(inject=[(1, 1)])
        svc.finalize()
        rc = main(
            [
                "serve", "--size", "32", "--port", "0",
                "--wal-dir", wal_dir, "--recover",
            ]
        )
        err = capsys.readouterr().err
        assert rc == 1
        assert "serve: recovery failed" in err


class TestObsCommand:
    def _traced(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        rc = main(
            [
                "label", "--size", "12", "--faults", "6", "--seed", "1",
                "--backend", "distributed", "--no-art",
                "--fault-schedule", "3:4,4",
                "--trace-out", str(trace),
            ]
        )
        assert rc == 0
        return trace

    def test_summarize(self, tmp_path, capsys):
        trace = self._traced(tmp_path)
        capsys.readouterr()
        assert main(["obs", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "run [engine=sync phase=unsafe]" in out
        assert "epochs" in out

    def test_summarize_missing_file(self, tmp_path, capsys):
        assert main(["obs", "summarize", str(tmp_path / "nope.jsonl")]) == 1

    def test_validate_events(self, tmp_path, capsys):
        trace = self._traced(tmp_path)
        capsys.readouterr()
        assert main(["obs", "validate", str(trace)]) == 0
        assert "events ok" in capsys.readouterr().out

    def test_validate_rejects_bad_events(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"name": "bogus", "t": 0, "level": "info", "fields": {}}\n')
        assert main(["obs", "validate", str(bad)]) == 1

    def test_validate_spans(self, tmp_path, capsys):
        spans = tmp_path / "spans.json"
        rc = main(
            [
                "label", "--size", "12", "--faults", "6", "--seed", "1",
                "--no-art", "--spans-out", str(spans),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        assert main(["obs", "validate", str(spans)]) == 0
        assert "trace events ok" in capsys.readouterr().out

    def test_validate_kind_override(self, tmp_path, capsys):
        trace = self._traced(tmp_path)
        capsys.readouterr()
        # Forcing the wrong kind must fail loudly, not mislabel success.
        assert main(["obs", "validate", str(trace), "--kind", "spans"]) == 1


class TestServeAdminPlane:
    def _serve_thread(self, argv):
        import threading

        result = {}

        def run():
            result["rc"] = main(argv)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return thread, result

    def _wait_for(self, capsys, prefixes):
        import time

        found = {}
        lines = []
        for _ in range(200):
            lines.extend(capsys.readouterr().out.splitlines())
            for line in lines:
                for prefix in prefixes:
                    if line.startswith(prefix):
                        found[prefix] = line.split()[-1]
            if len(found) == len(prefixes):
                return found
            time.sleep(0.05)
        raise AssertionError(f"server never printed {prefixes}: {lines}")

    def _get(self, addr, path):
        import http.client

        host, port = addr.rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=5)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read().decode("utf-8")
        finally:
            conn.close()

    def test_admin_plane_round_trip(self, tmp_path, capsys):
        import json

        from repro.obs import parse_prometheus
        from repro.service import ServiceClient

        thread, result = self._serve_thread(
            [
                "serve", "--size", "16", "--faults", "4", "--seed", "2",
                "--port", "0", "--admin-port", "0", "--max-requests", "3",
            ]
        )
        found = self._wait_for(capsys, ["listening on ", "admin on "])
        host, port = found["listening on "].rsplit(":", 1)
        admin = found["admin on "]

        # Liveness and readiness come up before any request.
        status, body = self._get(admin, "/healthz")
        assert status == 200 and body == "ok\n"
        status, body = self._get(admin, "/readyz")
        assert status == 200 and body == "ready\n"

        with ServiceClient.connect_tcp(host, int(port)) as client:
            client.ping()
            client.update(inject=[(5, 5)])

            # A live scrape parses as Prometheus text and carries the
            # request counters the dispatch path incremented.
            status, text = self._get(admin, "/metrics")
            assert status == 200
            parsed = parse_prometheus(text)
            counters = parsed["counters"]
            assert counters['service_requests{op="ping",outcome="ok"}'] == 1.0
            assert counters['service_requests{op="update",outcome="ok"}'] == 1.0

            # /varz is the live stats document, SLO included.
            status, body = self._get(admin, "/varz")
            assert status == 200
            varz = json.loads(body)
            assert varz["faults"] == 5
            assert varz["slo"]["count"] == 2 and varz["slo"]["errors"] == 0

            status, _ = self._get(admin, "/nope")
            assert status == 404

            client.stats()  # third request: server exits afterwards
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert result["rc"] == 0

    def test_admin_readyz_gates_on_unverified_recovery(self, tmp_path, capsys):
        """A durable restart reports ready only after recovery has
        verified its state; recovery always verifies before the server
        listens, so readiness is immediate here."""
        from repro.service import ServiceClient

        wal_dir = str(tmp_path / "wal")
        base = [
            "serve", "--size", "16", "--port", "0",
            "--wal-dir", wal_dir, "--snapshot-every", "2",
        ]
        thread, result = self._serve_thread(base + ["--max-requests", "1"])
        found = self._wait_for(capsys, ["listening on "])
        host, port = found["listening on "].rsplit(":", 1)
        with ServiceClient.connect_tcp(host, int(port)) as client:
            client.update(inject=[(3, 3)])
        thread.join(timeout=10)
        assert result["rc"] == 0

        thread, result = self._serve_thread(
            base + ["--recover", "--admin-port", "0", "--max-requests", "1"]
        )
        found = self._wait_for(capsys, ["listening on ", "admin on "])
        status, body = self._get(found["admin on "], "/readyz")
        assert status == 200 and body == "ready\n"
        host, port = found["listening on "].rsplit(":", 1)
        with ServiceClient.connect_tcp(host, int(port)) as client:
            client.ping()
        thread.join(timeout=10)
        assert result["rc"] == 0


class TestObsCompareStitchCommands:
    def test_compare_reports_regression(self, tmp_path, capsys):
        import json

        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"latency": {"p99": 100.0}}))
        b.write_text(json.dumps({"latency": {"p99": 200.0}}))
        assert main(["obs", "compare", str(a), str(b)]) == 0  # report-only
        out = capsys.readouterr().out
        assert "1 regressed" in out and "REGRESSED" in out

    def test_compare_fail_on_regression(self, tmp_path, capsys):
        import json

        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"p99": 100.0}))
        b.write_text(json.dumps({"p99": 200.0}))
        assert (
            main(["obs", "compare", str(a), str(b), "--fail-on-regression"])
            == 1
        )
        # A custom threshold wide enough swallows the move.
        assert (
            main(
                [
                    "obs", "compare", str(a), str(b),
                    "--fail-on-regression", "--threshold", "2.0",
                ]
            )
            == 0
        )

    def test_compare_bad_artifact_exits_cleanly(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text("{broken")
        b = tmp_path / "b.json"
        b.write_text("{}")
        assert main(["obs", "compare", str(a), str(b)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("obs compare: ")
        assert len(err.strip().splitlines()) == 1  # one line, no traceback

    def test_stitch_merges_traces(self, tmp_path, capsys):
        import json

        from repro.obs import SpanRecorder, load_chrome_trace

        paths = []
        for name in ("client", "server"):
            rec = SpanRecorder(name)
            with rec.span("work"):
                pass
            path = tmp_path / f"{name}.json"
            rec.write(str(path))
            paths.append(str(path))
        out_path = tmp_path / "stitched.json"
        assert main(["obs", "stitch", *paths, "-o", str(out_path)]) == 0
        stitched = load_chrome_trace(str(out_path))
        assert {e["pid"] for e in stitched["traceEvents"]} == {0, 1}
        assert "2 traces" in capsys.readouterr().out

    def test_stitch_invalid_input_exits_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        out_path = tmp_path / "out.json"
        assert main(["obs", "stitch", str(bad), "-o", str(out_path)]) == 1
        assert capsys.readouterr().err.startswith("obs stitch: ")


class TestObsRobustInputs:
    def test_summarize_json_export_with_slo(self, tmp_path, capsys):
        import json

        from repro.mesh import Mesh2D
        from repro.obs import JSONLSink, Telemetry
        from repro.service import LabelingService, handle_request

        trace = tmp_path / "svc.jsonl"
        telemetry = Telemetry(sinks=[JSONLSink(str(trace))])
        service = LabelingService(Mesh2D(12, 12))
        handle_request(service, {"op": "ping"}, telemetry=telemetry)
        handle_request(service, {"op": "nope"}, telemetry=telemetry)
        telemetry.close()
        out_json = tmp_path / "summary.json"
        capsys.readouterr()
        assert (
            main(
                [
                    "obs", "summarize", str(trace), "--json", str(out_json),
                    "--slo-availability", "0.9",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "slo:" in out
        exported = json.loads(out_json.read_text())
        assert exported["slo"]["count"] == 2
        assert exported["slo"]["errors"] == 1
        assert exported["slo"]["config"]["availability_target"] == 0.9
        assert exported["service_latency"]["ping"]["count"] == 1.0

    def test_summarize_truncated_jsonl_exits_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "truncated.jsonl"
        bad.write_text(
            '{"name": "heartbeat", "t": 0.0, "level": "info", '
            '"fields": {"seq": 1, "clock": 1}}\n'
            '{"name": "heartbeat", "t": 0.1, "le'
        )
        assert main(["obs", "summarize", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("obs summarize: ")
        assert ":2:" in err
        assert len(err.strip().splitlines()) == 1

    def test_summarize_binary_file_exits_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "binary.jsonl"
        bad.write_bytes(b"\x00\xff\xfe\x01binary garbage")
        assert main(["obs", "summarize", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("obs summarize: ")
        assert len(err.strip().splitlines()) == 1

    def test_validate_binary_file_exits_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "binary.jsonl"
        bad.write_bytes(b"\x80\x81\x82\x83")
        assert main(["obs", "validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("obs validate: ")
        assert "not UTF-8" in err
        assert len(err.strip().splitlines()) == 1

    def test_summarize_bad_slo_flags_exit_cleanly(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        trace.write_text("")
        assert (
            main(
                ["obs", "summarize", str(trace), "--slo-quantile", "1.5"]
            )
            == 1
        )
        assert capsys.readouterr().err.startswith("obs summarize: ")
