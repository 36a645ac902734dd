"""Tracer: deterministic head sampling, error capture, counters."""

from __future__ import annotations

import threading

import pytest

from repro.observability.metrics import MetricsRegistry, NullRegistry
from repro.observability.propagation import (
    TraceContext,
    current_trace,
    sampling_decision,
)
from repro.observability.tracer import NullTracer, Tracer


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestSamplingDecision:
    def test_deterministic_per_trace_id(self):
        for trace_id in ("aabbccdd00112233", "ffeeddcc99887766"):
            first = sampling_decision(trace_id, 0.5)
            assert all(
                sampling_decision(trace_id, 0.5) == first
                for _ in range(10)
            )

    def test_rate_one_always_samples(self):
        assert all(
            sampling_decision(f"{i:016x}", 1.0) for i in range(100)
        )

    def test_rate_zero_never_samples(self):
        assert not any(
            sampling_decision(f"{i:016x}", 0.0) for i in range(100)
        )

    def test_rate_roughly_respected(self):
        hits = sum(
            sampling_decision(f"{i:016x}", 0.1) for i in range(5000)
        )
        assert 300 < hits < 700  # 10% ± generous slack


class TestTraceLifecycle:
    def test_sampled_trace_records_span_tree(self, registry):
        tracer = Tracer(registry, default_rate=1.0)
        with tracer.trace("topk") as trace:
            with tracer.span("serve.top_k"):
                with tracer.span("serve.shard[000]"):
                    pass
        assert trace.sampled
        names = [span.name for span in trace.spans()]
        assert names == [
            "request.topk",
            "serve.top_k",
            "serve.shard[000]",
        ]
        assert tracer.finished() == [trace]

    def test_unsampled_clean_trace_is_dropped(self, registry):
        tracer = Tracer(registry, default_rate=0.0)
        with tracer.trace("topk"):
            with tracer.span("serve.top_k"):
                pass
        assert tracer.finished() == []

    def test_error_always_captured_even_at_rate_zero(self, registry):
        tracer = Tracer(registry, default_rate=0.0)
        with pytest.raises(RuntimeError):
            with tracer.trace("topk"):
                with tracer.span("serve.top_k"):
                    raise RuntimeError("shard exploded")
        finished = tracer.finished()
        assert len(finished) == 1
        trace = finished[0]
        assert trace.error and not trace.sampled
        assert "shard exploded" in trace.error_message
        spans = list(trace.spans())
        assert any(
            s.name == "serve.top_k" and s.error for s in spans
        )

    def test_mark_error_promotes_without_exception(self, registry):
        tracer = Tracer(registry, default_rate=0.0)
        with tracer.trace("topk") as trace:
            trace.mark_error("http 503")
        assert tracer.finished() == [trace]
        assert trace.error_message == "http 503"

    def test_trace_binds_and_unbinds_carrier(self, registry):
        tracer = Tracer(registry, default_rate=1.0)
        assert current_trace() is None
        with tracer.trace("topk") as trace:
            assert current_trace() is trace
        assert current_trace() is None

    def test_parent_context_pins_id_and_verdict(self, registry):
        tracer = Tracer(registry, default_rate=0.0)
        parent = TraceContext("cafe" * 4, "beef1234", sampled=True)
        with tracer.trace("topk", parent=parent) as trace:
            pass
        assert trace.context.trace_id == parent.trace_id
        assert trace.sampled  # upstream verdict wins over local rate 0
        assert trace.context.span_id != parent.span_id

    def test_explicit_trace_id_reproduces_decision(self, registry):
        tracer = Tracer(registry, default_rate=0.37)
        trace_id = "0123456789abcdef"
        expected = sampling_decision(trace_id, 0.37)
        with tracer.trace("topk", trace_id=trace_id) as trace:
            pass
        assert trace.sampled == expected

    def test_route_rate_overrides_default(self, registry):
        tracer = Tracer(
            registry, default_rate=0.0, route_rates={"topk": 1.0}
        )
        assert tracer.sample_rate_for("topk") == 1.0
        assert tracer.sample_rate_for("score") == 0.0
        with tracer.trace("topk") as trace:
            pass
        assert trace.sampled

    def test_buffer_is_bounded(self, registry):
        tracer = Tracer(registry, default_rate=1.0, buffer_size=4)
        for _ in range(10):
            with tracer.trace("topk"):
                pass
        assert len(tracer.finished()) == 4

    def test_find_trace_by_id(self, registry):
        tracer = Tracer(registry, default_rate=1.0)
        with tracer.trace("topk") as trace:
            pass
        assert tracer.find_trace(trace.context.trace_id) is trace
        assert tracer.find_trace("not-a-trace") is None


class TestCountersAndDrain:
    def test_counts_surface_through_counters_property(self, registry):
        tracer = Tracer(registry, default_rate=1.0)
        tracer.count("serve.requests")
        tracer.count("serve.requests", 2)
        assert tracer.counters["serve.requests"] == 3
        assert isinstance(tracer.counters["serve.requests"], int)

    def test_trace_counters_drain_into_registry(self, registry):
        tracer = Tracer(registry, default_rate=1.0)
        with tracer.trace("topk"):
            pass
        with pytest.raises(ValueError):
            with tracer.trace("topk"):
                raise ValueError("boom")
        tracer.drain()
        text = registry.render()
        assert "repro_trace_started_total 2" in text
        assert "repro_trace_sampled_total 2" in text
        assert "repro_trace_errors_total 1" in text

    def test_hot_counter_prebinding(self, registry):
        tracer = Tracer(registry, default_rate=1.0)
        cell = tracer.hot_counter("serve.requests")
        assert cell is tracer.hot_counter("serve.requests")
        cell.inc(5)
        assert tracer.counters["serve.requests"] == 5

    def test_shared_cellbank_merges_views(self, registry):
        from repro.observability.cells import CellBank

        cells = CellBank(registry)
        tracer = Tracer(registry, default_rate=1.0, cells=cells)
        assert tracer.cells is cells
        cells.counter("external.count").inc()
        assert tracer.counters["external.count"] == 1


class TestNullPathsSpawnNothing:
    def test_null_tracer_and_registry_create_no_threads(self):
        before = {t.ident for t in threading.enumerate()}
        tracer = NullTracer()
        registry = NullRegistry()
        with tracer.trace("topk") as trace:
            with tracer.span("serve.top_k"):
                tracer.count("serve.requests")
        trace.mark_error("ignored")
        assert registry.render() == ""
        after = {t.ident for t in threading.enumerate()}
        assert after == before

    def test_sampling_tracer_spawns_no_background_threads(self, registry):
        before = {t.ident for t in threading.enumerate()}
        tracer = Tracer(registry, default_rate=1.0)
        with tracer.trace("topk"):
            pass
        tracer.drain()
        after = {t.ident for t in threading.enumerate()}
        assert after == before

    def test_span_outside_trace_is_shared_null(self, registry):
        tracer = Tracer(registry, default_rate=1.0)
        first = tracer.span("serve.not_bridged")
        second = tracer.span("serve.not_bridged")
        assert first is second  # the shared null span, no allocation


class TestDefaultRate:
    def test_default_tracer_records_every_trace(self, registry):
        tracer = Tracer(registry)
        assert tracer.sample_rate_for("topk") == 1.0
        with tracer.trace("topk") as trace:
            assert trace.is_recording
            trace.mark_error("recorded")
        assert [s.name for s in trace.spans()] == ["request.topk"]
        assert tracer.finished() == [trace]

    def test_hot_handles_feed_counters(self, registry):
        tracer = Tracer(registry)
        tracer.hot_counter("serve.requests").inc(2)
        tracer.hot_histogram("serve.lat").observe(0.5)
        assert tracer.counters["serve.requests"] == 2
