"""Telemetry: tracing, metrics, structured logging, run reports.

The subsystem is a **two-tier pipeline** (DESIGN.md §15):

* :mod:`repro.observability.cells` — the hot tier: lock-striped
  per-thread Counter/Histogram cells (:class:`StripedCounter`,
  :class:`StripedHistogram`, power-of-two bucket index) collected in a
  :class:`CellBank` and drained — synchronously at scrape time or by a
  :class:`CellAggregator` thread — into the registry;
* :mod:`repro.observability.metrics` — the cold tier: the scrapeable
  :class:`MetricsRegistry` (Counter/Gauge/Histogram with Prometheus text
  exposition) and the free :class:`NullRegistry`;
* :mod:`repro.observability.tracer` — :class:`Tracer` (nested timed
  spans, counters, metric streams) and the free :class:`NullTracer`;
* :mod:`repro.observability.sampling` — :class:`SamplingTracer`:
  deterministic hash-based head sampling per request with
  always-sample-on-error, per-route rates and a bounded finished-trace
  buffer;
* :mod:`repro.observability.propagation` — :class:`TraceContext`
  minted at the HTTP edge and re-bound across threads, the
  micro-batcher and ``parallel_map_processes`` shard workers, so one
  request yields one stitched span tree;
* :mod:`repro.observability.profiler` — :class:`ContinuousProfiler`, a
  sampling wall-clock profiler attributing stack samples to active span
  labels, exported via ``/debug/profile`` and the experiments CLI;
* :mod:`repro.observability.logging` — structured JSON logging
  (:func:`get_logger`) with request/run-id propagation via contextvars;
* :mod:`repro.observability.records` — the per-iteration
  :class:`IterationRecord` shared between
  :class:`~repro.optim.convergence.IterationHistory` and the tracer;
* :mod:`repro.observability.report` — the schema-versioned
  :class:`RunReport` JSON archive with its human ``summary()``.

Every solver entry point (``ForwardBackwardSolver.solve``,
``CCCPSolver.solve``, ``SlamPred(tracer=...)``, ``evaluate_model``) accepts
an optional tracer; passing ``None`` (the default) runs the same loop on
the shared null tracer, and a live tracer only observes it.  A tracer built with ``Tracer(registry=...)`` additionally
publishes solver series (``solver.svt_seconds``, ``solver.objective``,
``solver.rank``) into the registry the serving stack scrapes.  See
DESIGN.md §"Telemetry & run reports", §"Metrics, logs & tracing" and
§15 "Two-tier telemetry".
"""

from repro.observability.records import IterationRecord
from repro.observability.tracer import NullTracer, Span, Tracer, is_tracing
from repro.observability.metrics import (
    BATCH_SIZE_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
)
from repro.observability.cells import (
    CellAggregator,
    CellBank,
    PowerOfTwoBucketIndex,
    StripedCounter,
    StripedHistogram,
)
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
    sampling_decision,
    sampling_threshold,
)
from repro.observability.sampling import (
    DEFAULT_SAMPLE_RATE,
    ActiveTrace,
    SamplingTracer,
)
from repro.observability.profiler import (
    GLOBAL_PROFILER,
    ContinuousProfiler,
    global_profiler,
)
from repro.observability.logging import (
    configure_logging,
    current_request_id,
    current_run_id,
    get_logger,
    new_request_id,
    request_context,
    run_context,
)
from repro.observability.report import (
    DEFAULT_REPORT_DIR,
    SCHEMA_VERSION,
    RunReport,
    build_run_report,
    default_report_path,
)

__all__ = [
    "IterationRecord",
    "Tracer",
    "NullTracer",
    "Span",
    "is_tracing",
    "SamplingTracer",
    "ActiveTrace",
    "DEFAULT_SAMPLE_RATE",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
    "BATCH_SIZE_BUCKETS",
    "CellBank",
    "CellAggregator",
    "StripedCounter",
    "StripedHistogram",
    "PowerOfTwoBucketIndex",
    "TraceContext",
    "RemoteTrace",
    "bind_trace",
    "current_trace",
    "current_trace_context",
    "inject_runtime_context",
    "activate_runtime_context",
    "new_trace_id",
    "new_span_id",
    "sampling_decision",
    "sampling_threshold",
    "ContinuousProfiler",
    "GLOBAL_PROFILER",
    "global_profiler",
    "configure_logging",
    "get_logger",
    "new_request_id",
    "current_request_id",
    "current_run_id",
    "request_context",
    "run_context",
    "RunReport",
    "build_run_report",
    "default_report_path",
    "SCHEMA_VERSION",
    "DEFAULT_REPORT_DIR",
]
