"""The chaos proxy and the retrying client: at-least-once delivery on a
hostile wire, exactly-once application at the service.

The proxy drops, truncates, splits, delays and duplicates NDJSON request
frames between a :class:`ServiceClient` and a :class:`LabelingServer`.
The client's retry/reconnect loop plus the server's per-client
high-water-mark dedup must converge every stream to exactly-once
application — proven here by the engine version (which bumps exactly
once per effective delta) and the bit-for-bit scratch check.
"""

import socket as socket_module
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.mesh import Mesh2D
from repro.service import (
    ChaosProxy,
    LabelingServer,
    LabelingService,
    ServiceClient,
)


def _serve(service, **kwargs):
    server = LabelingServer(service, conn_timeout=5.0, **kwargs)
    thread = server.serve_in_thread()
    return server, thread


def _stop(server, thread):
    server.shutdown()
    thread.join(timeout=5)
    server.close()


class TestChaosProxy:
    def test_transparent_relay(self):
        service = LabelingService(Mesh2D(12, 12))
        server, thread = _serve(service)
        try:
            with ChaosProxy(server.address, seed=1) as proxy:
                host, port = proxy.address
                with ServiceClient.connect_tcp(host, port) as client:
                    assert client.ping() == 0
                    client.update(inject=[(2, 2)])
                    assert client.query_nodes([(2, 2)])[0]["status"] == "faulty"
                assert proxy.stats["frames"] >= 3
        finally:
            _stop(server, thread)

    def test_chaos_is_seeded_deterministic(self):
        a = ChaosProxy(("127.0.0.1", 1), seed=42, drop_prob=0.5)
        b = ChaosProxy(("127.0.0.1", 1), seed=42, drop_prob=0.5)
        try:
            rolls_a = [float(a._rng.random()) for _ in range(16)]
            rolls_b = [float(b._rng.random()) for _ in range(16)]
            assert rolls_a == rolls_b
        finally:
            a.close()
            b.close()

    def test_close_stops_accept_thread_at_once(self):
        proxy = ChaosProxy(("127.0.0.1", 1), seed=0)
        thread = proxy.serve_in_thread()
        time.sleep(0.1)  # let the accept loop block in accept()
        start = time.monotonic()
        proxy.close()
        # close() joins with a 5 s timeout; only a listener shutdown wakes
        # the blocked accept(), so the loop is gone when close() returns.
        assert not thread.is_alive()
        assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize("client_open", [False, True])
    def test_close_leaves_no_relay_or_handler_thread(self, client_open):
        service = LabelingService(Mesh2D(12, 12))
        server, thread = _serve(service)
        before = set(threading.enumerate())
        try:
            proxy = ChaosProxy(server.address, seed=1)
            proxy.serve_in_thread()
            client = ServiceClient.connect_tcp(*proxy.address)
            for _ in range(3):  # one relay connection each
                assert client.ping() == 0
                client.close()
                client = ServiceClient.connect_tcp(*proxy.address)
            assert client.ping() == 0
            if not client_open:
                client.close()
            proxy.close()
            new = set(threading.enumerate()) - before
            # The relay and pump threads are joined inside close() ...
            assert not [t.name for t in new if t.is_alive()
                        and ("_relay_connection" in t.name
                             or "_pump_plain" in t.name)]
            # ... and the server saw EOF on every relayed connection, so
            # its handler threads return (asynchronously, hence the poll).
            deadline = time.monotonic() + 2.0
            while any(t.is_alive() for t in new) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not [t.name for t in new if t.is_alive()]
            client.close()
        finally:
            _stop(server, thread)

    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_updates_converge_exactly_once_under_chaos(self, seed):
        service = LabelingService(Mesh2D(16, 16))
        server, thread = _serve(service)
        try:
            with ChaosProxy(
                server.address,
                seed=seed,
                drop_prob=0.15,
                truncate_prob=0.1,
                split_prob=0.2,
                dup_prob=0.25,
                delay_prob=0.1,
                max_delay_s=0.005,
            ) as proxy:
                host, port = proxy.address
                client = ServiceClient.connect_tcp(
                    host, port, retries=8, backoff=0.01
                )
                applied = 0
                with client:
                    for i in range(12):
                        inject = [(i % 14, (3 * i) % 14)]
                        delta = client.update(inject=inject)
                        applied += 1 if delta["injected"] else 0
                # Exactly-once: each effective update bumped the version
                # exactly once, no matter how many frames the wire
                # carried or how many retries the client issued.
                assert service.version == applied
                assert service.verify_against_scratch()
                assert proxy.stats["frames"] >= 12
        finally:
            _stop(server, thread)

    def test_batch_updates_under_duplication(self):
        service = LabelingService(Mesh2D(16, 16))
        server, thread = _serve(service)
        try:
            with ChaosProxy(server.address, seed=3, dup_prob=1.0) as proxy:
                host, port = proxy.address
                with ServiceClient.connect_tcp(
                    host, port, retries=4, backoff=0.01
                ) as client:
                    deltas = client.update_batch(
                        [([(1, 1)], []), ([(2, 2)], []), ([], [(1, 1)])]
                    )
                    assert [d["version"] for d in deltas] == [1, 2, 3]
                    # Every frame carried a seq, so every frame doubled.
                    assert proxy.stats["duplicated"] >= 1
            assert service.version == 3
            assert sorted(service.faults.cells) == [(2, 2)]
            assert service.verify_against_scratch()
        finally:
            _stop(server, thread)


class TestClientRetry:
    def test_reconnects_after_server_restart_same_state(self):
        """A retrying client rides over a connection loss transparently."""
        service = LabelingService(Mesh2D(12, 12))
        server, thread = _serve(service)
        host, port = server.address
        client = ServiceClient.connect_tcp(host, port, retries=4, backoff=0.01)
        try:
            client.update(inject=[(3, 3)])
            # Kill the first connection under the client's feet.
            client._sock.shutdown(socket_module.SHUT_RDWR)
            delta = client.update(inject=[(4, 4)])
            assert delta["injected"] == [[4, 4]]
            assert service.version == 2
        finally:
            client.close()
            _stop(server, thread)

    def test_no_retries_surfaces_transport_error_with_op(self):
        service = LabelingService(Mesh2D(8, 8))
        server, thread = _serve(service)
        host, port = server.address
        client = ServiceClient.connect_tcp(host, port, retries=0)
        try:
            client.ping()
            client._sock.shutdown(socket_module.SHUT_RDWR)
            with pytest.raises(ServiceError, match="update"):
                client.update(inject=[(1, 1)])
        finally:
            client.close()
            _stop(server, thread)

    def test_retry_emits_telemetry(self, tmp_path):
        from repro.obs import JSONLSink, Telemetry
        from repro.obs.summarize import summarize_trace

        trace = str(tmp_path / "retries.jsonl")
        telemetry = Telemetry(sinks=[JSONLSink(trace)])
        service = LabelingService(Mesh2D(8, 8))
        server, thread = _serve(service)
        host, port = server.address
        client = ServiceClient.connect_tcp(
            host, port, retries=3, backoff=0.01, telemetry=telemetry
        )
        try:
            client._sock.shutdown(socket_module.SHUT_RDWR)  # force a transport failure
            client.update(inject=[(2, 2)])
        finally:
            client.close()
            _stop(server, thread)
            telemetry.close()
        summary = summarize_trace(trace)
        assert summary.durability["request_retry"]["count"] >= 1.0

    def test_duplicate_update_not_reapplied_without_proxy(self):
        """Replaying the same seq over a raw socket dedups server-side."""
        import json
        import socket as socket_module

        service = LabelingService(Mesh2D(8, 8))
        server, thread = _serve(service)
        host, port = server.address
        try:
            sock = socket_module.create_connection((host, port), timeout=5)
            rfile = sock.makefile("rb")
            payload = json.dumps(
                {
                    "op": "update",
                    "inject": [[1, 1]],
                    "client": "dup-test",
                    "seq": 1,
                }
            ).encode() + b"\n"
            sock.sendall(payload)
            first = json.loads(rfile.readline())
            sock.sendall(payload)  # verbatim retry
            second = json.loads(rfile.readline())
            sock.close()
            assert first["ok"] and second["ok"]
            assert second["duplicate"] is True
            assert second["version"] == first["version"] == 1
            assert second["delta"] == first["delta"]
            assert service.version == 1
        finally:
            _stop(server, thread)
