"""Trace context propagation: headers, payloads, thread and process pools."""

from __future__ import annotations

from repro.observability.logging import current_request_id, request_context
from repro.observability.metrics import MetricsRegistry
from repro.observability.propagation import (
    RemoteTrace,
    TraceContext,
    activate_runtime_context,
    bind_trace,
    current_trace,
    current_trace_context,
    inject_runtime_context,
    new_span_id,
    new_trace_id,
)
from repro.observability.tracer import Tracer
from repro.perf.parallel import parallel_map, parallel_map_processes


class TestTraceContext:
    def test_header_round_trip(self):
        context = TraceContext(new_trace_id(), new_span_id(), True)
        parsed = TraceContext.from_header(context.to_header())
        assert parsed == context

    def test_header_round_trip_unsampled(self):
        context = TraceContext("00ff", "ab12", False)
        assert context.to_header() == "00ff-ab12-00"
        assert TraceContext.from_header("00ff-ab12-00") == context

    def test_malformed_headers_return_none(self):
        for header in (
            None,
            "",
            "only-two",
            "a-b-02",  # bad flag
            "--00",  # empty ids
            "a-b-",
        ):
            assert TraceContext.from_header(header) is None

    def test_payload_round_trip(self):
        context = TraceContext("cafe", "beef", True)
        assert TraceContext.from_payload(context.to_payload()) == context
        assert TraceContext.from_payload(None) is None
        assert TraceContext.from_payload({}) is None
        assert TraceContext.from_payload({"trace_id": "x"}) is None

    def test_child_keeps_trace_and_verdict(self):
        parent = TraceContext("cafe", "beef", True)
        child = parent.child()
        assert child.trace_id == parent.trace_id
        assert child.sampled == parent.sampled
        assert child.span_id != parent.span_id


class TestCarrierBinding:
    def test_bind_and_unbind(self):
        context = TraceContext("cafe", "beef", True)
        assert current_trace() is None
        with bind_trace(RemoteTrace(context)) as carrier:
            assert current_trace() is carrier
            assert current_trace_context() == context
            assert not carrier.is_recording
        assert current_trace_context() is None

    def test_inject_empty_ambient_returns_none(self):
        assert inject_runtime_context() is None

    def test_inject_and_activate_round_trip(self):
        context = TraceContext("cafe", "beef", True)
        with request_context("req-42"), bind_trace(RemoteTrace(context)):
            payload = inject_runtime_context()
        assert payload["request_id"] == "req-42"
        assert TraceContext.from_payload(payload["trace"]) == context
        assert current_request_id() is None
        with activate_runtime_context(payload):
            assert current_request_id() == "req-42"
            assert current_trace_context() == context
        assert current_request_id() is None
        assert current_trace_context() is None

    def test_activate_none_is_noop(self):
        with activate_runtime_context(None):
            assert current_request_id() is None


def _worker_runtime(_item):
    """Module-level (hence picklable) probe of the rebound context."""
    context = current_trace_context()
    return (
        current_request_id(),
        None if context is None else context.to_header(),
    )


class TestPoolPropagation:
    def test_thread_pool_workers_see_request_context(self):
        context = TraceContext("cafe", "beef", True)
        with request_context("req-7"), bind_trace(RemoteTrace(context)):
            results, _ = parallel_map(
                _worker_runtime, range(4), max_workers=4
            )
        assert results == [("req-7", "cafe-beef-01")] * 4

    def test_process_pool_workers_see_request_context(self):
        context = TraceContext("cafe", "beef", False)
        with request_context("req-9"), bind_trace(RemoteTrace(context)):
            results, _ = parallel_map_processes(
                _worker_runtime, range(3), max_workers=2
            )
        assert results == [("req-9", "cafe-beef-00")] * 3

    def test_sequential_paths_also_propagate(self):
        with request_context("req-1"):
            thread_results, _ = parallel_map(
                _worker_runtime, [0], max_workers=1
            )
            process_results, _ = parallel_map_processes(
                _worker_runtime, [0], max_workers=1
            )
        assert thread_results == [("req-1", None)]
        assert process_results == [("req-1", None)]

    def test_no_ambient_context_is_clean(self):
        results, _ = parallel_map_processes(
            _worker_runtime, range(2), max_workers=2
        )
        assert results == [(None, None)] * 2

    def test_active_trace_context_reaches_thread_workers(self):
        tracer = Tracer(MetricsRegistry(), default_rate=1.0)
        with tracer.trace("topk") as trace:
            results, _ = parallel_map(
                _worker_runtime, [0], max_workers=1
            )
        assert results[0][1] == trace.context.to_header()
