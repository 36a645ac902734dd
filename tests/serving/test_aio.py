"""Asyncio front end: keep-alive framing, pipelining, shed/deadline, drain.

The endpoint contract is pinned by ``test_router.py`` (no socket) and by
the ``endpoint`` fixture's tests in ``test_http.py`` /
``test_observability.py``; this module covers the transport itself —
raw-socket HTTP/1.1 semantics the high-level ``urllib`` client cannot
express, and the graceful-drain lifecycle.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.serving.aio import AsyncLinkPredictionServer
from repro.serving.batcher import MicroBatcher


@pytest.fixture()
def aio_server(service):
    """A started asyncio server; yields the server object."""
    server = AsyncLinkPredictionServer(service, port=0).start()
    yield server
    server.shutdown()
    server.server_close()


def _connect(server):
    """One raw TCP connection to the server."""
    host, port = server.server_address
    sock = socket.create_connection((host, port), timeout=10)
    return sock


def _read_one_response(reader):
    """Parse one framed response off a file-like reader.

    Returns ``(status, headers, body_bytes)`` — relies on the server
    sending a correct ``Content-Length``, which is exactly what the
    framing tests assert.
    """
    status_line = reader.readline().decode("latin-1")
    assert status_line.startswith("HTTP/1.1 "), status_line
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = reader.readline().decode("latin-1").strip()
        if not line:
            break
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers["content-length"])
    body = reader.read(length)
    assert len(body) == length
    return status, headers, body


class TestKeepAliveFraming:
    def test_pipelined_requests_get_distinct_ids_and_framing(
        self, aio_server
    ):
        # Three requests written back-to-back before reading anything:
        # the server must answer all three, in order, each correctly
        # framed and each with its own generated request id.
        sock = _connect(aio_server)
        try:
            batch = b"".join(
                f"GET /v1/topk?user={user}&k=3 HTTP/1.1\r\n"
                f"Host: x\r\n\r\n".encode()
                for user in (1, 2, 3)
            )
            sock.sendall(batch)
            reader = sock.makefile("rb")
            ids, users = [], []
            for _ in range(3):
                status, headers, body = _read_one_response(reader)
                assert status == 200
                assert headers["connection"] == "keep-alive"
                payload = json.loads(body)
                ids.append(headers["x-request-id"])
                users.append(payload["user"])
                assert payload["request_id"] == headers["x-request-id"]
            assert users == [1, 2, 3]
            assert len(set(ids)) == 3
        finally:
            sock.close()

    def test_sequential_requests_reuse_one_connection(self, aio_server):
        sock = _connect(aio_server)
        try:
            reader = sock.makefile("rb")
            for user in range(4):
                sock.sendall(
                    f"GET /v1/score?u={user}&v={user + 1} HTTP/1.1\r\n"
                    f"Host: x\r\n\r\n".encode()
                )
                status, _, body = _read_one_response(reader)
                assert status == 200
                assert json.loads(body)["u"] == user
        finally:
            sock.close()

    def test_connection_close_honoured(self, aio_server):
        sock = _connect(aio_server)
        try:
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                b"Connection: close\r\n\r\n"
            )
            reader = sock.makefile("rb")
            status, headers, _ = _read_one_response(reader)
            assert status == 200
            assert headers["connection"] == "close"
            assert reader.read() == b""  # server closed after the answer
        finally:
            sock.close()

    def test_http10_defaults_to_close(self, aio_server):
        sock = _connect(aio_server)
        try:
            sock.sendall(b"GET /healthz HTTP/1.0\r\nHost: x\r\n\r\n")
            reader = sock.makefile("rb")
            status, headers, _ = _read_one_response(reader)
            assert status == 200
            assert headers["connection"] == "close"
            assert reader.read() == b""
        finally:
            sock.close()

    def test_error_bodies_are_framed_json(self, aio_server):
        sock = _connect(aio_server)
        try:
            reader = sock.makefile("rb")
            for target, expected in (
                ("/nope", 404),
                ("/v1/topk?user=abc", 400),
                ("/v1/topk?user=9999", 400),
            ):
                sock.sendall(
                    f"GET {target} HTTP/1.1\r\nHost: x\r\n\r\n".encode()
                )
                status, headers, body = _read_one_response(reader)
                assert status == expected
                assert headers["content-type"] == "application/json"
                payload = json.loads(body)
                assert payload["status"] == expected
                assert payload["error"] and payload["request_id"]
        finally:
            sock.close()


class TestMalformedRequests:
    def test_malformed_request_line_400_does_not_poison_connection(
        self, aio_server
    ):
        # A garbage request line answers 400, and the *same* connection
        # then serves a well-formed request normally.
        sock = _connect(aio_server)
        try:
            reader = sock.makefile("rb")
            sock.sendall(b"THIS IS NOT HTTP\r\n\r\n")
            status, headers, body = _read_one_response(reader)
            assert status == 400
            assert "malformed request line" in json.loads(body)["error"]
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            status, _, body = _read_one_response(reader)
            assert status == 200
            assert json.loads(body)["status"] == "ok"
        finally:
            sock.close()

    def test_malformed_request_line_with_body_stays_aligned(
        self, aio_server
    ):
        # The 400 consumes the declared body, so the next pipelined
        # request still parses from a clean boundary.
        sock = _connect(aio_server)
        try:
            reader = sock.makefile("rb")
            sock.sendall(
                b"BROKEN\r\nContent-Length: 5\r\n\r\nhello"
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            status, _, _ = _read_one_response(reader)
            assert status == 400
            status, _, body = _read_one_response(reader)
            assert status == 200
            assert json.loads(body)["status"] == "ok"
        finally:
            sock.close()

    def test_bad_content_length_closes_connection(self, aio_server):
        # Unknown framing: the 400 must be the connection's last answer.
        sock = _connect(aio_server)
        try:
            reader = sock.makefile("rb")
            sock.sendall(
                b"POST /v1/topk HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: banana\r\n\r\n"
            )
            status, headers, body = _read_one_response(reader)
            assert status == 400
            assert headers["connection"] == "close"
            assert "Content-Length" in json.loads(body)["error"]
            assert reader.read() == b""
        finally:
            sock.close()

    def test_transfer_encoding_rejected(self, aio_server):
        sock = _connect(aio_server)
        try:
            reader = sock.makefile("rb")
            sock.sendall(
                b"POST /v1/topk HTTP/1.1\r\nHost: x\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
            )
            status, headers, _ = _read_one_response(reader)
            assert status == 400
            assert headers["connection"] == "close"
        finally:
            sock.close()


class TestSheddingAndDeadline:
    def test_max_inflight_sheds_with_503(self, service, monkeypatch):
        # One slow worker occupies the single in-flight slot; a second
        # request must be shed on the event loop with the uniform body.
        release = threading.Event()
        original = service.top_k

        def slow_top_k(user, k):
            release.wait(5.0)
            return original(user, k)

        monkeypatch.setattr(service, "top_k", slow_top_k)
        server = AsyncLinkPredictionServer(
            service, port=0, max_inflight=1
        ).start()
        try:
            slow = _connect(server)
            slow.sendall(
                b"GET /v1/topk?user=0&k=3 HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            deadline = time.perf_counter() + 5.0
            shed_payload = None
            while time.perf_counter() < deadline:
                probe = _connect(server)
                probe.sendall(
                    b"GET /v1/topk?user=1&k=3 HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                status, _, body = _read_one_response(probe.makefile("rb"))
                probe.close()
                if status == 503:
                    shed_payload = json.loads(body)
                    break
            release.set()
            assert shed_payload is not None, "no request was shed"
            assert "overloaded" in shed_payload["error"]
            status, _, _ = _read_one_response(slow.makefile("rb"))
            assert status == 200
            slow.close()
            metrics = service.metrics_text()
            assert "repro_reliability_shed_requests_total" in metrics
        finally:
            release.set()
            server.shutdown()
            server.server_close()

    def test_deadline_overrun_answers_503(self, service, monkeypatch):
        # The remaining budget becomes the batcher wait bound; a scoring
        # pass slower than the deadline times the waiter out into a 503
        # with the deadline message.
        monkeypatch.setattr(
            service,
            "batch_top_k_mixed",
            lambda users, ks: time.sleep(0.5) or [[] for _ in users],
        )
        with MicroBatcher(service) as batcher:
            server = AsyncLinkPredictionServer(
                service, port=0, batcher=batcher, request_deadline_s=0.05
            ).start()
            try:
                sock = _connect(server)
                sock.sendall(
                    b"GET /v1/topk?user=0&k=3 HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                status, _, body = _read_one_response(sock.makefile("rb"))
                sock.close()
                assert status == 503
                assert "timed out" in json.loads(body)["error"]
            finally:
                server.shutdown()
                server.server_close()

    def test_batcher_routes_single_user_gets(self, service):
        with MicroBatcher(service) as batcher:
            server = AsyncLinkPredictionServer(
                service, port=0, batcher=batcher
            ).start()
            try:
                sock = _connect(server)
                sock.sendall(
                    b"GET /v1/topk?user=4&k=3 HTTP/1.1\r\nHost: x\r\n\r\n"
                )
                status, _, body = _read_one_response(sock.makefile("rb"))
                sock.close()
                assert status == 200
                assert len(json.loads(body)["candidates"]) == 3
                assert service.tracer.counters["batcher.requests"] >= 1
            finally:
                server.shutdown()
                server.server_close()


class TestGracefulDrain:
    def test_shutdown_finishes_inflight_then_stops_accepting(
        self, service, monkeypatch
    ):
        entered = threading.Event()
        original = service.top_k

        def slow_top_k(user, k):
            entered.set()
            time.sleep(0.3)
            return original(user, k)

        monkeypatch.setattr(service, "top_k", slow_top_k)
        server = AsyncLinkPredictionServer(service, port=0).start()
        sock = _connect(server)
        sock.sendall(
            b"GET /v1/topk?user=0&k=3 HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        assert entered.wait(5.0)
        server.shutdown(wait=True)
        # The in-flight request completed during the drain window…
        status, _, body = _read_one_response(sock.makefile("rb"))
        assert status == 200
        assert len(json.loads(body)["candidates"]) == 3
        sock.close()
        # …and the listener is gone afterwards.
        host, port = server.server_address
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=0.5)
        server.server_close()

    def test_shutdown_closes_idle_keepalive_connections(self, aio_server):
        sock = _connect(aio_server)
        reader = sock.makefile("rb")
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        status, _, _ = _read_one_response(reader)
        assert status == 200
        aio_server.shutdown(wait=True)
        assert reader.read() == b""  # idle connection was closed
        sock.close()

    def test_shutdown_flushes_batcher(self, service):
        batcher = MicroBatcher(service).start()
        server = AsyncLinkPredictionServer(
            service, port=0, batcher=batcher
        ).start()
        try:
            sock = _connect(server)
            sock.sendall(
                b"GET /v1/topk?user=2&k=3 HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            status, _, _ = _read_one_response(sock.makefile("rb"))
            sock.close()
            assert status == 200
            server.shutdown(wait=True)
            assert batcher.flush(timeout=1.0)  # nothing left queued
        finally:
            server.server_close()
            batcher.stop()

    def test_shutdown_is_idempotent(self, service):
        server = AsyncLinkPredictionServer(service, port=0).start()
        server.shutdown(wait=True)
        server.shutdown(wait=True)  # second call is a no-op
        server.server_close()
        server.server_close()


class TestObservabilityExtras:
    def test_loop_lag_and_executor_series_registered(self, aio_server, service):
        sock = _connect(aio_server)
        sock.sendall(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
        status, _, body = _read_one_response(sock.makefile("rb"))
        sock.close()
        assert status == 200
        text = body.decode()
        assert "repro_serving_loop_lag_seconds" in text
        assert "repro_serving_executor_queue_depth" in text
        assert "repro_serving_executor_wait_seconds" in text

    def test_executor_hop_span_attached_to_sampled_trace(self, service):
        from repro.observability.tracer import Tracer

        service.tracer = Tracer(
            service.registry, default_rate=1.0, cells=service.cells
        )
        server = AsyncLinkPredictionServer(service, port=0).start()
        try:
            sock = _connect(server)
            sock.sendall(
                b"GET /v1/topk?user=0&k=3 HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            status, _, _ = _read_one_response(sock.makefile("rb"))
            sock.close()
            assert status == 200
            finished = service.tracer.finished()
            assert finished
            names = [span.name for span in finished[-1].spans()]
            assert "serving.executor_hop" in names
        finally:
            server.shutdown()
            server.server_close()
