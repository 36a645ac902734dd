"""Tests for the HTTP endpoint: routes, shapes, errors, batched GETs."""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.serving.aio import AsyncLinkPredictionServer
from repro.serving.batcher import MicroBatcher


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.load(response)


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.load(response)


def _error(url, payload=None):
    try:
        if payload is None:
            urllib.request.urlopen(url, timeout=10)
        else:
            _post(url, payload)
    except urllib.error.HTTPError as exc:
        return exc.code, json.load(exc)
    raise AssertionError("expected an HTTP error")


class TestRoutes:
    def test_healthz(self, endpoint, service):
        payload = _get(f"{endpoint}/healthz")
        assert payload == {
            "status": "ok",
            "version": 1,
            "model": "toy-model",
            "n_users": service.n_users,
        }

    def test_topk_shape(self, endpoint, service, adjacency):
        payload = _get(f"{endpoint}/v1/topk?user=3&k=5")
        assert payload["user"] == 3
        assert payload["k"] == 5
        assert payload["version"] == 1
        candidates = payload["candidates"]
        assert len(candidates) == 5
        users = [c["user"] for c in candidates]
        assert len(set(users)) == 5
        assert 3 not in users
        for c in candidates:
            assert adjacency[3, c["user"]] == 0
        scores = [c["score"] for c in candidates]
        assert scores == sorted(scores, reverse=True)

    def test_topk_default_k(self, endpoint):
        assert _get(f"{endpoint}/v1/topk?user=0")["k"] == 10

    def test_score(self, endpoint, service):
        payload = _get(f"{endpoint}/v1/score?u=1&v=2")
        assert payload["score"] == pytest.approx(service.score(1, 2))
        assert payload["known_link"] == service.is_known_link(1, 2)

    def test_stats_reflects_traffic(self, endpoint):
        _get(f"{endpoint}/v1/topk?user=1&k=3")
        _get(f"{endpoint}/v1/topk?user=1&k=3")
        stats = _get(f"{endpoint}/v1/stats")
        assert stats["cache"]["hits"] >= 1
        assert stats["counters"]["http.requests"] >= 2
        assert stats["counters"]["serve.topk_requests"] >= 2

    def test_post_single(self, endpoint, service):
        payload = _post(f"{endpoint}/v1/topk", {"user": 2, "k": 4})
        assert [c["user"] for c in payload["candidates"]] == [
            u for u, _ in service.top_k(2, k=4)
        ]

    def test_post_batch(self, endpoint):
        payload = _post(f"{endpoint}/v1/topk", {"users": [0, 1, 2], "k": 3})
        assert len(payload["results"]) == 3
        for result, user in zip(payload["results"], [0, 1, 2]):
            assert result["user"] == user
            assert len(result["candidates"]) == 3


class TestErrors:
    def test_unknown_route_404(self, endpoint):
        code, payload = _error(f"{endpoint}/v2/nope")
        assert code == 404
        assert "no such endpoint" in payload["error"]

    def test_missing_user_400(self, endpoint):
        code, payload = _error(f"{endpoint}/v1/topk")
        assert code == 400
        assert "user" in payload["error"]

    def test_out_of_range_user_400(self, endpoint):
        code, payload = _error(f"{endpoint}/v1/topk?user=9999")
        assert code == 400
        assert "out of range" in payload["error"]

    def test_non_integer_param_400(self, endpoint):
        code, _ = _error(f"{endpoint}/v1/topk?user=abc")
        assert code == 400

    def test_bad_json_body_400(self, endpoint):
        request = urllib.request.Request(
            f"{endpoint}/v1/topk", data=b"{not json"
        )
        try:
            urllib.request.urlopen(request, timeout=10)
        except urllib.error.HTTPError as exc:
            assert exc.code == 400
        else:  # pragma: no cover - failure path
            raise AssertionError("expected 400")

    def test_post_without_user_400(self, endpoint):
        code, payload = _error(f"{endpoint}/v1/topk", {"k": 3})
        assert code == 400
        assert "user" in payload["error"]


class TestBatchedServer:
    def test_get_routed_through_batcher(self, service):
        with MicroBatcher(service) as batcher:
            server = AsyncLinkPredictionServer(
                service, port=0, batcher=batcher
            ).start()
            try:
                base = f"http://127.0.0.1:{server.server_address[1]}"
                payload = _get(f"{base}/v1/topk?user=4&k=3")
                assert len(payload["candidates"]) == 3
                assert service.tracer.counters["batcher.requests"] >= 1
            finally:
                server.shutdown()
                server.server_close()


class TestErrorBodyContract:
    """Every 4xx/5xx answer is valid JSON: {error, status, request_id}."""

    def test_every_error_response_is_structured_json(self, endpoint):
        failing = [
            f"{endpoint}/definitely-not-a-route",        # 404
            f"{endpoint}/v1/topk",                       # 400: missing user
            f"{endpoint}/v1/topk?user=abc",              # 400: bad type
            f"{endpoint}/v1/topk?user=9999",             # 400: out of range
            f"{endpoint}/v1/score?u=1",                  # 400: missing v
        ]
        for url in failing:
            try:
                urllib.request.urlopen(url, timeout=10)
            except urllib.error.HTTPError as exc:
                body = exc.read().decode("utf-8")
                payload = json.loads(body)  # not JSON -> this test fails
                assert payload["status"] == exc.code
                assert payload["error"]
                assert payload["request_id"]
                assert exc.headers["Content-Type"] == "application/json"
            else:  # pragma: no cover - failure path
                raise AssertionError(f"expected an HTTP error for {url}")

    def test_error_echoes_caller_request_id(self, endpoint):
        request = urllib.request.Request(
            f"{endpoint}/v1/topk",  # missing user -> 400
            headers={"X-Request-Id": "caller-chosen-id"},
        )
        try:
            urllib.request.urlopen(request, timeout=10)
        except urllib.error.HTTPError as exc:
            assert json.load(exc)["request_id"] == "caller-chosen-id"
        else:  # pragma: no cover - failure path
            raise AssertionError("expected 400")


class TestReadiness:
    def test_readyz_ready(self, endpoint):
        payload = _get(f"{endpoint}/readyz")
        assert payload["status"] == "ready"
        assert payload["reload_breaker"] == "closed"

    def test_readyz_503_when_breaker_open(self, service):
        server = AsyncLinkPredictionServer(service, port=0).start()
        try:
            base = f"http://127.0.0.1:{server.server_address[1]}"
            for _ in range(10):  # force the reload breaker open
                service.reload_breaker.record_failure()
            code, payload = _error(f"{base}/readyz")
            assert code == 503
            assert payload["reload_breaker"] == "open"
            # Liveness is unaffected: the process is up, just not ready.
            assert _get(f"{base}/healthz")["status"] == "ok"
        finally:
            server.shutdown()
            server.server_close()


class TestTraceEdge:
    """Trace minting, header echo/parse, request-id payloads, profiler."""

    def test_topk_payload_carries_request_id(self, endpoint):
        request = urllib.request.Request(
            f"{endpoint}/v1/topk?user=0&k=3",
            headers={"X-Request-Id": "rid-topk-1"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            payload = json.load(response)
        assert payload["request_id"] == "rid-topk-1"

    def test_response_echoes_trace_context_header(self, endpoint):
        with urllib.request.urlopen(
            f"{endpoint}/v1/topk?user=0&k=3", timeout=10
        ) as response:
            header = response.headers.get("X-Trace-Context")
        assert header is not None
        parts = header.rsplit("-", 2)
        assert len(parts) == 3 and parts[2] in ("00", "01")

    def test_incoming_trace_header_pins_trace_id(self, service):
        from repro.observability.sampling import SamplingTracer

        service.tracer = SamplingTracer(
            service.registry, default_rate=0.0, cells=service.cells
        )
        server = AsyncLinkPredictionServer(service, port=0).start()
        try:
            base = f"http://127.0.0.1:{server.server_address[1]}"
            request = urllib.request.Request(
                f"{base}/v1/topk?user=0&k=3",
                headers={"X-Trace-Context": "feedface00c0ffee-12345678-01"},
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                echoed = response.headers["X-Trace-Context"]
            assert echoed.startswith("feedface00c0ffee-")
            # Upstream said sampled=01, so the trace commits regardless
            # of the local rate-0 default.
            trace = service.tracer.find_trace("feedface00c0ffee")
            assert trace is not None and trace.sampled
        finally:
            server.shutdown()
            server.server_close()

    def test_server_error_commits_error_trace(self, service, monkeypatch):
        from repro.observability.sampling import SamplingTracer

        service.tracer = SamplingTracer(
            service.registry, default_rate=0.0, cells=service.cells
        )
        monkeypatch.setattr(
            service,
            "top_k",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        server = AsyncLinkPredictionServer(service, port=0).start()
        try:
            base = f"http://127.0.0.1:{server.server_address[1]}"
            code, _ = _error(f"{base}/v1/topk?user=0&k=3")
            assert code == 500
            finished = service.tracer.finished()
            assert len(finished) == 1
            assert finished[0].error and not finished[0].sampled
        finally:
            server.shutdown()
            server.server_close()

    def test_debug_profile_route(self, endpoint):
        from repro.observability.profiler import global_profiler

        payload = _get(f"{endpoint}/debug/profile?top=5")
        assert payload["running"] == global_profiler().running
        assert "entries" in payload and "total_samples" in payload

    def test_debug_profile_reports_samples_when_running(self, endpoint):
        from repro.observability.profiler import global_profiler

        profiler = global_profiler()
        profiler.reset()
        profiler.start()
        try:
            deadline = time.monotonic() + 5.0
            payload = _get(f"{endpoint}/debug/profile")
            while (
                payload["total_samples"] == 0
                and time.monotonic() < deadline
            ):
                _get(f"{endpoint}/v1/topk?user=0&k=3")
                payload = _get(f"{endpoint}/debug/profile")
            assert payload["running"]
        finally:
            profiler.stop()
            profiler.reset()
