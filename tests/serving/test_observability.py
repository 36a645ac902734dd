"""Serving observability: /metrics exposition, request ids, thread-safety."""

from __future__ import annotations

import io
import json
import logging
import re
import threading
import urllib.error
import urllib.request

import pytest

from repro.observability.logging import configure_logging
from repro.observability.metrics import MetricsRegistry, NullRegistry
from repro.observability.tracer import NullTracer
from repro.serving.batcher import MicroBatcher
from repro.serving.service import LinkPredictionService

# The `endpoint` fixture comes from tests/serving/conftest.py.


def _get_raw(url, headers=None):
    request = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(request, timeout=10) as response:
        return response, response.read().decode("utf-8")


_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$"
)


def _parse_prometheus(text):
    """Validate text-format structure; return {sample name: float value}."""
    samples = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            continue
        assert _SAMPLE_LINE.match(line), f"malformed sample line: {line!r}"
        name_part, value = line.rsplit(" ", 1)
        samples[name_part] = float(value) if value != "+Inf" else float("inf")
    return samples


class TestMetricsEndpoint:
    def test_scrape_is_valid_prometheus_with_core_series(self, endpoint):
        _get_raw(f"{endpoint}/v1/topk?user=1&k=3")
        _get_raw(f"{endpoint}/v1/topk?user=1&k=3")  # warm: cache hit
        response, text = _get_raw(f"{endpoint}/metrics")
        assert response.headers["Content-Type"].startswith(
            "text/plain; version=0.0.4"
        )
        samples = _parse_prometheus(text)
        route = '{route="topk",method="GET",status="200"}'
        assert samples[
            f"repro_serving_http_request_seconds_count{route}"
        ] >= 2
        assert samples["repro_serving_cache_hits_total"] >= 1
        assert samples["repro_serving_cache_misses_total"] >= 1
        assert samples["repro_serving_artifact_version"] == 1
        assert samples["repro_serving_uptime_seconds"] >= 0
        # The scrape itself is instrumented too (visible next scrape).
        _, second = _get_raw(f"{endpoint}/metrics")
        metrics_route = '{route="metrics",method="GET",status="200"}'
        assert _parse_prometheus(second)[
            f"repro_serving_http_request_seconds_count{metrics_route}"
        ] >= 1

    def test_solver_series_exposed_when_fit_shares_registry(self, store):
        # One registry can aggregate both halves: a solve bridged through
        # the tracer and the serving traffic, on one /metrics page.
        from repro.observability.tracer import Tracer

        registry = MetricsRegistry()
        tracer = Tracer(registry=registry)
        with tracer.span("svt"):
            pass
        service = LinkPredictionService(store, registry=registry)
        service.top_k(0, 3)
        text = service.metrics_text()
        assert "repro_solver_svt_seconds_count" in text
        assert "repro_serving_cache_misses_total" in text

    def test_registry_less_tracer_drains_into_service_registry(self, store):
        # A tracer built without a registry is attached to the service's
        # registry, and its striped cells must drain there too.
        from repro.observability.tracer import Tracer

        registry = MetricsRegistry()
        tracer = Tracer(default_rate=1.0)
        service = LinkPredictionService(
            store, tracer=tracer, registry=registry
        )
        with tracer.trace("topk"):
            service.top_k(0, 3)
        text = service.metrics_text()
        assert "repro_trace_started_total 1" in text
        assert "repro_trace_sampled_total 1" in text

    def test_404_and_errors_counted(self, endpoint):
        try:
            _get_raw(f"{endpoint}/nope")
        except urllib.error.HTTPError as exc:
            assert exc.code == 404
        try:
            _get_raw(f"{endpoint}/v1/topk?user=9999")
        except urllib.error.HTTPError as exc:
            assert exc.code == 400
        _, text = _get_raw(f"{endpoint}/metrics")
        samples = _parse_prometheus(text)
        assert samples["repro_serving_http_not_found_total"] >= 1
        assert samples[
            'repro_serving_http_errors_total{route="topk"}'
        ] >= 1
        assert samples[
            'repro_serving_http_request_seconds_count'
            '{route="other",method="GET",status="404"}'
        ] >= 1


class TestRequestIds:
    def test_response_echoes_client_request_id(self, endpoint):
        response, _ = _get_raw(
            f"{endpoint}/healthz", headers={"X-Request-Id": "cli-abc123"}
        )
        assert response.headers["X-Request-Id"] == "cli-abc123"

    def test_server_generates_request_id_when_absent(self, endpoint):
        response, _ = _get_raw(f"{endpoint}/healthz")
        generated = response.headers["X-Request-Id"]
        assert generated and len(generated) == 12

    def test_request_id_flows_into_access_log(self, endpoint):
        stream = io.StringIO()
        handler = configure_logging(logging.DEBUG, stream=stream, force=True)
        try:
            _get_raw(
                f"{endpoint}/v1/topk?user=1&k=2",
                headers={"X-Request-Id": "trace-me-0001"},
            )
        finally:
            logging.getLogger("repro").removeHandler(handler)
        records = [
            json.loads(line)
            for line in stream.getvalue().splitlines()
            if line.strip()
        ]
        access = [r for r in records if r["logger"] == "repro.serving.http"]
        assert access, f"no access-log records in {records}"
        assert access[-1]["request_id"] == "trace-me-0001"
        assert access[-1]["path"].startswith("/v1/topk")
        assert access[-1]["status"] == 200
        assert access[-1]["method"] == "GET"

    def test_request_id_propagates_into_batcher(self, service):
        from repro.observability.logging import request_context

        with MicroBatcher(service) as batcher:
            with request_context("req-batch-7"):
                batcher.submit(1, 3)
        # The batch executed on the worker thread, away from the request
        # context; the id must have been captured at submit time.
        assert service.tracer.counters["batcher.requests"] == 1


class TestReloadMetrics:
    def test_noop_and_success_reloads_counted(self, service, store):
        from repro.models.persistence import FrozenPredictor
        import numpy as np

        service.reload()  # same version: no-op
        scores = np.zeros((service.n_users, service.n_users))
        store.publish(FrozenPredictor(scores, {"name": "v2"}))
        service.reload()  # picks up version 2
        text = service.metrics_text()
        samples = _parse_prometheus(text)
        assert samples["repro_serving_reload_noop_total"] == 1
        assert samples["repro_serving_reload_success_total"] == 1
        assert samples["repro_serving_artifact_version"] == 2


class TestServingConcurrency:
    """Hammer one service from many threads; counters must not lose."""

    def test_parallel_topk_counts_every_request(self, store):
        service = LinkPredictionService(store, cache_size=4)
        n_threads, per_thread = 12, 200
        barrier = threading.Barrier(n_threads)
        errors = []

        def worker(seed):
            barrier.wait()
            try:
                for i in range(per_thread):
                    service.top_k((seed + i) % service.n_users, 3)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        total = n_threads * per_thread
        stats = service.stats()["cache"]
        assert stats["hits"] + stats["misses"] == total
        samples = _parse_prometheus(service.metrics_text())
        registry_total = (
            samples["repro_serving_cache_hits_total"]
            + samples["repro_serving_cache_misses_total"]
        )
        assert registry_total == total


class TestDisabledTelemetry:
    def test_null_tracer_and_registry_serve_correctly(self, store):
        service = LinkPredictionService(
            store, tracer=NullTracer(), registry=NullRegistry()
        )
        ranked = service.top_k(0, 3)
        assert len(ranked) == 3
        assert service.metrics_text() == ""
        assert service.stats()["cache"]["hits"] + (
            service.stats()["cache"]["misses"]
        ) >= 1  # internal stats still work without a registry
