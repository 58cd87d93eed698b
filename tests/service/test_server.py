"""The NDJSON protocol and the socket servers behind ``repro serve``.

``handle_request`` is tested in-process (the protocol has exactly one
implementation, shared by the socket front end), then full TCP and
Unix-domain round trips run through :class:`ServiceClient`, including
error responses, the shutdown op, and telemetry artefacts of a traced
server.
"""

import json
import socket as socket_module
import threading

import pytest

from repro.mesh import Mesh2D
from repro.obs import JSONLSink, Telemetry
from repro.obs.events import validate_jsonl
from repro.obs.summarize import summarize_trace
from repro.service import (
    LabelingServer,
    LabelingService,
    ServiceClient,
    handle_request,
)

FAULTS = [(3, 3), (3, 4), (4, 3)]


@pytest.fixture()
def service():
    return LabelingService(Mesh2D(16, 16), faults=FAULTS)


class TestHandleRequest:
    def test_ping(self, service):
        response, shutdown = handle_request(service, {"op": "ping"})
        assert response == {"ok": True, "version": 1}
        assert not shutdown

    def test_update_returns_delta(self, service):
        response, _ = handle_request(
            service, {"op": "update", "inject": [[10, 10]]}
        )
        assert response["ok"]
        assert response["delta"]["injected"] == [[10, 10]]
        assert response["version"] == 2
        assert json.loads(json.dumps(response)) == response  # JSON-safe

    def test_query_coords(self, service):
        response, _ = handle_request(
            service, {"op": "query", "coords": [[3, 3], [0, 0]]}
        )
        assert response["nodes"][0]["status"] == "faulty"
        assert response["nodes"][1] == {
            "coord": [0, 0], "status": "safe", "enabled": True,
        }

    def test_query_blocks_and_regions(self, service):
        blocks, _ = handle_request(service, {"op": "query", "what": "blocks"})
        assert blocks["blocks"][0]["origin"] == [3, 3]
        regions, _ = handle_request(service, {"op": "query", "what": "regions"})
        assert regions["regions"][0]["faults"] == 3

    def test_snapshot(self, service):
        response, _ = handle_request(service, {"op": "snapshot"})
        assert response["summary"]["f"] == 3
        assert len(response["blocks"]) == response["summary"]["num_blocks"]
        assert json.loads(json.dumps(response)) == response

    def test_stats(self, service):
        response, _ = handle_request(service, {"op": "stats"})
        assert response["stats"]["faults"] == 3

    def test_shutdown_op(self, service):
        response, shutdown = handle_request(service, {"op": "shutdown"})
        assert response["ok"] and shutdown

    @pytest.mark.parametrize(
        "request_obj, error_type",
        [
            ({"op": "nope"}, "ServiceError"),
            ({}, "ServiceError"),
            ({"op": 7}, "ServiceError"),
            ({"op": "update", "inject": [[1, 2, 3]]}, "ServiceError"),
            ({"op": "update", "inject": [[1.5, 2]]}, "ServiceError"),
            ({"op": "update", "inject": "nope"}, "ServiceError"),
            ({"op": "update", "inject": [[99, 0]]}, "TopologyError"),
            ({"op": "update", "inject": [[1, 1]], "repair": [[1, 1]]},
             "FaultModelError"),
            ({"op": "query"}, "ServiceError"),
            ({"op": "query", "what": "polygons"}, "ServiceError"),
        ],
    )
    def test_errors_become_responses(self, service, request_obj, error_type):
        response, shutdown = handle_request(service, request_obj)
        assert response["ok"] is False
        assert response["error_type"] == error_type
        assert not shutdown

    def test_errors_do_not_corrupt_state(self, service):
        handle_request(service, {"op": "update", "inject": [[99, 0]]})
        assert service.verify_against_scratch()

    def test_batch_update_returns_per_delta_versions(self, service):
        response, _ = handle_request(
            service,
            {
                "op": "update",
                "batch": [
                    {"inject": [[10, 10]]},
                    {"inject": [[11, 11]]},
                    {"repair": [[10, 10]]},
                ],
            },
        )
        assert response["ok"]
        assert [d["version"] for d in response["deltas"]] == [2, 3, 4]
        assert response["deltas"][0]["injected"] == [[10, 10]]
        assert response["deltas"][2]["repaired"] == [[10, 10]]
        assert response["version"] == 4
        assert json.loads(json.dumps(response)) == response

    def test_empty_batch_is_a_noop(self, service):
        response, _ = handle_request(service, {"op": "update", "batch": []})
        assert response["ok"] and response["deltas"] == []
        assert response["version"] == 1

    def test_malformed_batch_rejected(self, service):
        response, _ = handle_request(
            service, {"op": "update", "batch": [17]}
        )
        assert response["ok"] is False
        assert response["error_type"] == "ServiceError"

    def test_idempotency_key_dedups(self, service):
        request = {
            "op": "update", "inject": [[9, 9]], "client": "c", "seq": 1,
        }
        first, _ = handle_request(service, request)
        second, _ = handle_request(service, request)
        assert second["duplicate"] is True
        assert second["version"] == first["version"]
        assert second["delta"] == first["delta"]
        assert service.version == first["version"]

    def test_seq_echoed_even_on_errors(self, service):
        response, _ = handle_request(
            service, {"op": "nope", "client": "c", "seq": 5}
        )
        assert response["ok"] is False
        assert response["seq"] == 5

    @pytest.mark.parametrize(
        "request_obj",
        [
            {"op": "update", "client": 7, "seq": 1},
            {"op": "update", "client": "c", "seq": "one"},
            {"op": "update", "client": "c", "seq": True},
            {"op": "update", "client": "c"},  # seq missing
        ],
    )
    def test_bad_idempotency_key_rejected(self, service, request_obj):
        response, _ = handle_request(service, request_obj)
        assert response["ok"] is False
        assert response["error_type"] == "ServiceError"

    def test_request_events_are_emitted(self, service, tmp_path):
        trace = tmp_path / "requests.jsonl"
        telemetry = Telemetry(sinks=[JSONLSink(str(trace))])
        handle_request(service, {"op": "ping"}, telemetry=telemetry)
        handle_request(service, {"op": "nope"}, telemetry=telemetry)
        telemetry.close()
        assert validate_jsonl(str(trace)) == 2
        summary = summarize_trace(str(trace))
        assert summary.service_latency["ping"]["count"] == 1.0
        assert summary.service_latency["nope"]["errors"] == 1.0


def _with_server(server, fn):
    thread = server.serve_in_thread()
    try:
        return fn()
    finally:
        server.shutdown()
        thread.join(timeout=5)
        server.close()


class TestSocketRoundTrips:
    def test_tcp_round_trip(self, service):
        server = LabelingServer(service)  # ephemeral port
        host, port = server.address

        def talk():
            with ServiceClient.connect_tcp(host, port) as client:
                assert client.ping() == 1
                delta = client.update(inject=[(10, 10)])
                assert delta["injected"] == [[10, 10]]
                nodes = client.query_nodes([(10, 10)])
                assert nodes[0]["status"] == "faulty"
                assert client.query_blocks()
                assert client.query_regions()
                assert client.snapshot()["summary"]["f"] == 4
                assert client.stats()["updates"] == 2
                response = client.request({"op": "nope"})
                assert response["ok"] is False
                assert response["error_type"] == "ServiceError"

        _with_server(server, talk)
        assert server.requests_served >= 8

    def test_unix_round_trip(self, service, tmp_path):
        if not hasattr(socket_module, "AF_UNIX"):
            pytest.skip("no unix sockets on this platform")
        path = str(tmp_path / "repro.sock")
        server = LabelingServer(service, unix_path=path)

        def talk():
            with ServiceClient.connect_unix(path) as client:
                assert client.ping() == 1
                client.update(inject=[(12, 12)], repair=[(3, 3)])
                assert client.stats()["faults"] == 3

        _with_server(server, talk)

    def test_malformed_line_gets_error_response(self, service):
        server = LabelingServer(service)
        host, port = server.address

        def talk():
            sock = socket_module.create_connection((host, port), timeout=5)
            try:
                sock.sendall(b"this is not json\n")
                line = sock.makefile("rb").readline()
                response = json.loads(line)
                assert response["ok"] is False
                assert "not JSON" in response["error"]
            finally:
                sock.close()

        _with_server(server, talk)

    def test_shutdown_op_stops_the_server(self, service):
        server = LabelingServer(service)
        host, port = server.address
        thread = server.serve_in_thread()
        with ServiceClient.connect_tcp(host, port) as client:
            client.shutdown()
        thread.join(timeout=5)
        assert not thread.is_alive()
        server.close()

    def test_max_requests_bounds_the_server(self, service):
        server = LabelingServer(service, max_requests=2)
        host, port = server.address
        thread = server.serve_in_thread()
        with ServiceClient.connect_tcp(host, port) as client:
            client.ping()
            client.ping()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert server.requests_served == 2
        server.close()

    def test_concurrent_clients_are_serialized(self, service):
        server = LabelingServer(service)
        host, port = server.address

        def talk():
            errors = []

            def worker(cell):
                try:
                    with ServiceClient.connect_tcp(host, port) as client:
                        client.update(inject=[cell])
                        client.update(repair=[cell])
                except Exception as exc:  # pragma: no cover - failure detail
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=((8 + i, 8),))
                for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not errors

        _with_server(server, talk)
        assert service.verify_against_scratch()
        assert service.engine.num_faults == len(FAULTS)

    def test_batch_round_trip(self, service):
        server = LabelingServer(service)
        host, port = server.address

        def talk():
            with ServiceClient.connect_tcp(host, port) as client:
                deltas = client.update_batch(
                    [([(10, 10)], []), ([(11, 11)], []), ([], [(10, 10)])]
                )
                assert len(deltas) == 3
                assert deltas[-1]["version"] == service.version

        _with_server(server, talk)
        assert service.verify_against_scratch()


class TestServerHardening:
    def test_oversized_frame_gets_structured_error(self, service):
        server = LabelingServer(service, max_frame=256)
        host, port = server.address

        def talk():
            sock = socket_module.create_connection((host, port), timeout=5)
            try:
                rfile = sock.makefile("rb")
                sock.sendall(b'{"op": "ping", "pad": "' + b"x" * 600 + b'"}\n')
                response = json.loads(rfile.readline())
                assert response["ok"] is False
                assert "exceeds" in response["error"]
                assert response["error_type"] == "ServiceError"
                # The connection survives: the oversized line was drained.
                sock.sendall(b'{"op": "ping"}\n')
                assert json.loads(rfile.readline())["ok"] is True
            finally:
                sock.close()

        _with_server(server, talk)

    def test_non_utf8_frame_gets_structured_error(self, service):
        server = LabelingServer(service)
        host, port = server.address

        def talk():
            sock = socket_module.create_connection((host, port), timeout=5)
            try:
                rfile = sock.makefile("rb")
                sock.sendall(b'{"op": "ping", "x": "\xff\xfe"}\n')
                response = json.loads(rfile.readline())
                assert response["ok"] is False
                assert "not UTF-8" in response["error"]
                # The connection thread survived the bad frame.
                sock.sendall(b'{"op": "ping"}\n')
                assert json.loads(rfile.readline())["ok"] is True
            finally:
                sock.close()

        _with_server(server, talk)

    def test_conn_timeout_reaps_idle_connections(self, service):
        server = LabelingServer(service, conn_timeout=0.2)
        host, port = server.address

        def talk():
            sock = socket_module.create_connection((host, port), timeout=5)
            try:
                # Say nothing; the server must hang up on its own.
                line = sock.makefile("rb").readline()
                assert line == b""
            finally:
                sock.close()

        _with_server(server, talk)

    def test_overload_sheds_with_retryable_error(self, service):
        server = LabelingServer(service, max_inflight=1)
        host, port = server.address
        thread = server.serve_in_thread()
        release = threading.Event()
        entered = threading.Event()
        original_apply = service.apply_batch

        def slow_apply(*args, **kwargs):
            entered.set()
            release.wait(timeout=10)
            return original_apply(*args, **kwargs)

        service.apply_batch = slow_apply
        try:
            blocker = ServiceClient.connect_tcp(host, port, retries=0)
            prober = ServiceClient.connect_tcp(host, port, retries=0)
            slow = threading.Thread(
                target=lambda: blocker.request(
                    {"op": "update", "inject": [[12, 12]]}
                ),
                daemon=True,
            )
            slow.start()
            assert entered.wait(timeout=5)
            response = prober.request({"op": "ping"})
            assert response["ok"] is False
            assert response["error_type"] == "ServiceOverloadedError"
            assert response["retryable"] is True
            release.set()
            slow.join(timeout=5)
            assert prober.ping() >= 1  # slot freed, service healthy again
            blocker.close()
            prober.close()
        finally:
            service.apply_batch = original_apply
            release.set()
            server.shutdown()
            thread.join(timeout=5)
            server.close()

    def test_shutdown_update_race_never_yields_partial_frames(self, service):
        """Satellite: concurrent updates + shutdown — every client gets a
        complete JSON response or a clean connection-closed EOF."""
        server = LabelingServer(service)
        host, port = server.address
        thread = server.serve_in_thread()
        failures = []
        barrier = threading.Barrier(6)

        def updater(i):
            try:
                barrier.wait(timeout=5)
                # A stopped server must refuse or reset at once: a read
                # that waits out this deadline is a failure, not a close.
                with socket_module.create_connection(
                    (host, port), timeout=2
                ) as sock, sock.makefile("rb") as rfile:
                    for n in range(20):
                        sock.sendall(
                            json.dumps(
                                {"op": "update", "inject": [[8 + i, 8 + n % 4]],
                                 "repair": []}
                            ).encode() + b"\n"
                        )
                        line = rfile.readline()
                        if line == b"":
                            return  # clean close: fine during shutdown
                        # Any returned line must be one complete JSON object.
                        response = json.loads(line)
                        assert "ok" in response
            except TimeoutError as exc:
                failures.append(exc)
            except (ConnectionError, OSError):
                pass  # clean connection-level close: acceptable
            except Exception as exc:  # pragma: no cover - failure detail
                failures.append(exc)

        def stopper():
            try:
                barrier.wait(timeout=5)
                with ServiceClient.connect_tcp(host, port, retries=0) as c:
                    c.shutdown()
            except Exception:
                pass

        threads = [
            threading.Thread(target=updater, args=(i,)) for i in range(5)
        ] + [threading.Thread(target=stopper)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=15)
        thread.join(timeout=5)
        server.close()
        assert not failures
        assert service.verify_against_scratch()

    def test_drain_finalizes_durable_service(self, tmp_path):
        from repro.service import list_state
        from repro.service.wal import read_clean_marker

        durable = LabelingService(
            Mesh2D(16, 16), wal_dir=str(tmp_path), snapshot_every=2
        )
        server = LabelingServer(durable)
        host, port = server.address
        thread = server.serve_in_thread()
        with ServiceClient.connect_tcp(host, port) as client:
            client.update(inject=[(5, 5)])
            client.update(inject=[(6, 6)])
        assert server.drain(timeout=5)
        server.close()
        thread.join(timeout=5)
        assert read_clean_marker(str(tmp_path))
        assert "snapshot.json" in list_state(str(tmp_path))


class TestRequestAccounting:
    """Every answered *and* rejected request lands in the
    ``service_requests`` counter family and the service's SLO window."""

    def _traced_server(self, service, **kwargs):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        telemetry = Telemetry(metrics=registry)
        server = LabelingServer(service, telemetry=telemetry, **kwargs)
        return server, registry

    def test_dispatch_counts_ok_and_error_outcomes(self, service):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        telemetry = Telemetry(metrics=registry)
        handle_request(service, {"op": "ping"}, telemetry=telemetry)
        handle_request(service, {"op": "nope"}, telemetry=telemetry)
        counters = registry.snapshot()["counters"]
        assert counters['service_requests{op="ping",outcome="ok"}'] == 1
        assert counters['service_requests{op="nope",outcome="error"}'] == 1

    def test_dispatch_feeds_the_slo_window(self, service):
        handle_request(service, {"op": "ping"})
        handle_request(service, {"op": "nope"})
        slo = service.stats()["slo"]
        assert slo["count"] == 2 and slo["errors"] == 1

    def test_oversized_frame_counted_as_rejection(self, service):
        server, registry = self._traced_server(service, max_frame=128)
        host, port = server.address

        def talk():
            sock = socket_module.create_connection((host, port), timeout=5)
            try:
                rfile = sock.makefile("rb")
                sock.sendall(b'{"op": "ping", "pad": "' + b"x" * 400 + b'"}\n')
                assert json.loads(rfile.readline())["ok"] is False
            finally:
                sock.close()

        _with_server(server, talk)
        counters = registry.snapshot()["counters"]
        assert counters['service_requests{op="?",outcome="oversized"}'] == 1
        assert service.stats()["slo"]["errors"] >= 1

    def test_non_utf8_frame_counted_as_rejection(self, service):
        server, registry = self._traced_server(service)
        host, port = server.address

        def talk():
            sock = socket_module.create_connection((host, port), timeout=5)
            try:
                rfile = sock.makefile("rb")
                sock.sendall(b'{"op": "ping", "x": "\xff\xfe"}\n')
                assert json.loads(rfile.readline())["ok"] is False
            finally:
                sock.close()

        _with_server(server, talk)
        counters = registry.snapshot()["counters"]
        assert counters['service_requests{op="?",outcome="not_utf8"}'] == 1

    def test_connection_deadline_counted_as_rejection(self, service):
        server, registry = self._traced_server(service, conn_timeout=0.2)
        host, port = server.address

        def talk():
            sock = socket_module.create_connection((host, port), timeout=5)
            try:
                assert sock.makefile("rb").readline() == b""
            finally:
                sock.close()

        _with_server(server, talk)
        counters = registry.snapshot()["counters"]
        assert counters['service_requests{op="?",outcome="deadline"}'] == 1
        assert service.stats()["slo"]["errors"] >= 1

    def test_load_shed_counted_as_rejection_with_op(self, service):
        server, registry = self._traced_server(service, max_inflight=1)
        host, port = server.address
        thread = server.serve_in_thread()
        release = threading.Event()
        entered = threading.Event()
        original_apply = service.apply_batch

        def slow_apply(*args, **kwargs):
            entered.set()
            release.wait(timeout=10)
            return original_apply(*args, **kwargs)

        service.apply_batch = slow_apply
        try:
            blocker = ServiceClient.connect_tcp(host, port, retries=0)
            prober = ServiceClient.connect_tcp(host, port, retries=0)
            slow = threading.Thread(
                target=lambda: blocker.request(
                    {"op": "update", "inject": [[12, 12]]}
                ),
                daemon=True,
            )
            slow.start()
            assert entered.wait(timeout=5)
            response = prober.request({"op": "ping"})
            assert response["error_type"] == "ServiceOverloadedError"
            release.set()
            slow.join(timeout=5)
            blocker.close()
            prober.close()
        finally:
            service.apply_batch = original_apply
            release.set()
            server.shutdown()
            thread.join(timeout=5)
            server.close()
        counters = registry.snapshot()["counters"]
        assert counters['service_requests{op="ping",outcome="overloaded"}'] == 1

    def test_rejection_events_reach_the_summary(self, service, tmp_path):
        """Rejections emit schema-valid ``service_request`` events the
        offline summarize SLO grades alongside dispatched requests."""
        trace = tmp_path / "t.jsonl"
        telemetry = Telemetry(sinks=[JSONLSink(str(trace))])
        server = LabelingServer(service, telemetry=telemetry, max_frame=128)
        host, port = server.address

        def talk():
            sock = socket_module.create_connection((host, port), timeout=5)
            try:
                rfile = sock.makefile("rb")
                sock.sendall(b'{"op": "ping", "pad": "' + b"y" * 400 + b'"}\n')
                rfile.readline()
                sock.sendall(b'{"op": "ping"}\n')
                rfile.readline()
            finally:
                sock.close()

        _with_server(server, talk)
        telemetry.close()
        assert validate_jsonl(str(trace)) >= 2
        summary = summarize_trace(str(trace))
        assert summary.slo is not None
        assert summary.slo["errors"] >= 1
        assert summary.service_latency["?"]["errors"] >= 1.0
