"""Tracing: head-sampled traces of timed spans, counters and metric streams.

A served request and a model fit are both a *trace*: an
:class:`ActiveTrace` opened by :meth:`Tracer.trace`, bound into the
propagation contextvar, and committed to a bounded finished-trace buffer
when sampled or errored.  The sampling decision is made once per trace
from its id (:func:`~repro.observability.propagation.sampled_below`).
``Tracer()`` samples every trace (fits, experiments); the serving stack
passes ``default_rate=DEFAULT_SAMPLE_RATE``.  A span records into a
sampled trace, watches an unsampled one (materialising only on error),
and outside any trace feeds only its registry bridge — so no tracer state
grows with requests, batches or reloads.  Counters are tracer-wide
striped :mod:`~repro.observability.cells`; metric streams and iteration
records belong to the bound sampled trace, allocated on first use.

:class:`NullTracer` is the free null object (``enabled`` is False, so
instrumented code can gate extra work behind it); solvers given
``tracer=None`` run the same loop on the shared :data:`NULL_TRACER`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence

import repro.observability.profiler as _profiler
from repro.observability.cells import CellBank
from repro.observability.metrics import DEFAULT_LATENCY_BUCKETS
from repro.observability.propagation import (
    _ACTIVE,
    TraceContext,
    new_span_id,
    new_trace_id,
    sampled_below,
    sampling_threshold,
)
from repro.observability.records import IterationRecord

# Bridge into a MetricsRegistry: which tracer events surface as which
# registry series.  Span durations, counters and metric samples not named
# here stay tracer-only (they still land in run reports).
_SPAN_HISTOGRAMS: Dict[str, str] = {
    "svt": "solver.svt_seconds",
    "gradient": "solver.gradient_seconds",
    "cccp_round": "solver.cccp_round_seconds",
    "serve.reload": "serving.reload_seconds",
}
_COUNTER_BRIDGE: Dict[str, str] = {
    "cccp.rounds": "solver.cccp_rounds",
    "cccp.checkpoints": "solver.checkpoints",
    "cccp.resumes": "solver.resumes",
    "fb.iterations": "solver.fb_iterations",
    "fb.step_halvings": "solver.step_halvings",
    "gfb.iterations": "solver.gfb_iterations",
    "gfb.step_halvings": "solver.step_halvings",
    "svt.lossy_truncations": "solver.svt_lossy_truncations",
    "svt.rank_grows": "solver.svt_rank_grows",
    "svt.rank_shrinks": "solver.svt_rank_shrinks",
    # Both SVD recovery paths roll up into one degradation counter.
    "svt.dense_fallbacks": "reliability.svd_fallbacks",
    "svt.eigh_fallbacks": "reliability.svd_fallbacks",
}
_GAUGE_BRIDGE: Dict[str, str] = {
    "svt.retained_rank": "solver.rank",
    "svt.tail_excess": "solver.svt_tail_excess",
    "svt.adaptive_rank": "solver.svt_adaptive_rank",
    "intimacy.n_sources": "solver.intimacy_sources",
}
# Metric samples that feed a registry histogram rather than a gauge —
# per-item wall times whose distribution (not last value) matters.
_HISTOGRAM_BRIDGE: Dict[str, str] = {
    "intimacy.source_seconds": "solver.source_extract_seconds",
    "intimacy.transfer_seconds": "solver.source_transfer_seconds",
}


@dataclass
class Span:
    """One timed region of a trace; spans nest to form a tree."""

    name: str
    start: float = 0.0
    duration: float = 0.0
    children: List["Span"] = field(default_factory=list)
    attrs: Optional[Dict[str, Any]] = None
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible view of the span subtree."""
        payload: Dict[str, Any] = {
            "name": self.name,
            "seconds": float(self.duration),
        }
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        if self.error:
            payload["error"] = self.error
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload

    def iter_spans(self) -> Iterator["Span"]:
        """Depth-first iteration over the subtree (self included)."""
        yield self
        for child in self.children:
            yield from child.iter_spans()


class ActiveTrace:
    """One trace (a request or a fit): context, span tree, error state.

    Doubles as the carrier bound into the propagation contextvar, so
    ``span()`` sites and downstream workers reach it without threading
    it through call signatures.  The metric and iteration slots stay
    unset until the first sample arrives.
    """

    __slots__ = (
        "context",
        "route",
        "request_id",
        "tracer",
        "sampled",
        "error",
        "error_message",
        "duration",
        "root",
        "_span_stack",
        "_metrics",
        "_iterations",
    )

    is_recording = True

    def __init__(
        self,
        tracer: "Tracer",
        context: TraceContext,
        route: str,
        request_id: Optional[str] = None,
    ) -> None:
        self.context = context
        self.route = route
        self.request_id = request_id
        self.tracer = tracer
        self.sampled = context.sampled
        self.error = False
        self.error_message: Optional[str] = None
        self.duration = 0.0
        self.root: Optional[Span] = None
        self._span_stack: List[Span] = []
        if self.sampled:
            self.ensure_root()

    def ensure_root(self) -> Span:
        """The trace's root span, created on first need."""
        if self.root is None:
            self.root = Span(name=f"request.{self.route}")
            self._span_stack = [self.root]
        return self.root

    def mark_error(self, message: str = "") -> None:
        """Flag the trace as errored (promotes it past head sampling)."""
        self.error = True
        if message and self.error_message is None:
            self.error_message = str(message)

    def add_span(
        self,
        name: str,
        duration: float,
        attrs: Optional[Dict[str, Any]] = None,
        error: Optional[str] = None,
    ) -> Span:
        """Graft one pre-timed child span (batcher pass, remote shard)."""
        node = Span(
            name=name, duration=float(duration), attrs=attrs, error=error
        )
        self.ensure_root().children.append(node)
        return node

    @property
    def metrics(self) -> Dict[str, List[float]]:
        """Named scalar metric streams recorded in this trace."""
        return getattr(self, "_metrics", {})

    @property
    def iterations(self) -> List[IterationRecord]:
        """Solver iteration records attached to this trace (shared objects)."""
        return getattr(self, "_iterations", [])

    def add_metric(self, name: str, value: float) -> None:
        """Append one sample to a named metric stream."""
        try:
            streams = self._metrics
        except AttributeError:
            streams = self._metrics = {}
        streams.setdefault(name, []).append(float(value))

    def add_iteration(self, record: IterationRecord) -> None:
        """Attach a solver iteration record."""
        try:
            records = self._iterations
        except AttributeError:
            records = self._iterations = []
        records.append(record)

    def spans(self) -> Iterator[Span]:
        """Depth-first iteration over the recorded span tree."""
        if self.root is not None:
            yield from self.root.iter_spans()

    def phase_totals(self) -> Dict[str, Dict[str, float]]:
        """Per-name wall-clock below the root: ``{name: {count, seconds}}``."""
        totals: Dict[str, Dict[str, float]] = {}
        if self.root is None:
            return totals
        for child in self.root.children:
            for node in child.iter_spans():
                slot = totals.setdefault(
                    node.name, {"count": 0, "seconds": 0.0}
                )
                slot["count"] += 1
                slot["seconds"] += node.duration
        return totals

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible view of the whole trace."""
        payload: Dict[str, Any] = {
            "trace_id": self.context.trace_id,
            "span_id": self.context.span_id,
            "route": self.route,
            "request_id": self.request_id,
            "sampled": self.sampled,
            "error": self.error,
            "seconds": float(self.duration),
        }
        if self.error_message:
            payload["error_message"] = self.error_message
        if self.root is not None:
            payload["spans"] = self.root.to_dict()
        return payload


def _sampled_trace() -> Optional[ActiveTrace]:
    """The bound trace when it records metrics (sampled), else ``None``."""
    carrier = _ACTIVE.get()
    if carrier.__class__ is ActiveTrace and carrier.sampled:
        return carrier
    return None


class _InertTrace:
    """What :meth:`NullTracer.trace` yields: nothing is recorded.

    Shares the trace surface (``context``, ``sampled``, ``mark_error``)
    so HTTP-edge code is tracer-agnostic; every field is a class
    attribute and the single instance is reused.
    """

    __slots__ = ()

    context = None
    sampled = False
    error = False
    is_recording = False

    def mark_error(self, message: str = "") -> None:
        """Discard the error mark (nothing is being recorded)."""
        return None


_INERT_TRACE = _InertTrace()


class _NullSpan:
    """Reusable do-nothing span context manager."""

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _RecordedSpan:
    """Span context manager for sampled traces (records into the tree)."""

    __slots__ = ("_tracer", "_record", "_name", "_node")

    def __init__(
        self, tracer: "Tracer", record: ActiveTrace, name: str
    ) -> None:
        self._tracer = tracer
        self._record = record
        self._name = name
        self._node: Optional[Span] = None

    def __enter__(self) -> Span:
        record = self._record
        record.ensure_root()
        node = Span(name=self._name, start=time.perf_counter())
        record._span_stack[-1].children.append(node)
        record._span_stack.append(node)
        self._node = node
        if _profiler.TRACKING:
            _profiler.push_label(self._name)
        return node

    def __exit__(self, exc_type, exc, tb) -> None:
        node = self._node
        node.duration = time.perf_counter() - node.start
        record = self._record
        if len(record._span_stack) > 1:
            record._span_stack.pop()
        if _profiler.TRACKING:
            _profiler.pop_label()
        if exc is not None:
            node.error = f"{exc_type.__name__}: {exc}"
            record.mark_error(node.error)
        self._tracer._bridge_span(self._name, node.duration)
        return None


class _WatchSpan:
    """Span context manager for unsampled traces: records only on error.

    The success path allocates this object, reads two clocks and
    records nothing; when the block raises, the span materializes with
    its duration and the owning trace is promoted to an error trace.
    """

    __slots__ = ("_tracer", "_record", "_name", "_start")

    def __init__(
        self, tracer: "Tracer", record: ActiveTrace, name: str
    ) -> None:
        self._tracer = tracer
        self._record = record
        self._name = name
        self._start = 0.0

    def __enter__(self) -> Span:
        self._start = time.perf_counter()
        if _profiler.TRACKING:
            _profiler.push_label(self._name)
        return _NULL_SPAN  # type: ignore[return-value]

    def __exit__(self, exc_type, exc, tb) -> None:
        if _profiler.TRACKING:
            _profiler.pop_label()
        duration = time.perf_counter() - self._start
        if exc is not None:
            message = f"{exc_type.__name__}: {exc}"
            self._record.add_span(self._name, duration, error=message)
            self._record.mark_error(message)
        self._tracer._bridge_span(self._name, duration)
        return None


class _BridgedSpan:
    """Span context manager for bridge-mapped names outside any trace.

    Keeps cold solver/serving spans (``svt``, ``serve.reload``, …)
    feeding their registry histograms even though no trace is active to
    record them.
    """

    __slots__ = ("_tracer", "_name", "_start")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._start = 0.0

    def __enter__(self) -> Span:
        self._start = time.perf_counter()
        if _profiler.TRACKING:
            _profiler.push_label(self._name)
        return _NULL_SPAN  # type: ignore[return-value]

    def __exit__(self, *exc_info) -> None:
        if _profiler.TRACKING:
            _profiler.pop_label()
        self._tracer._bridge_span(
            self._name, time.perf_counter() - self._start
        )
        return None


class Tracer:
    """Head-sampled traces, striped counters and per-trace metric streams.

    Parameters
    ----------
    registry:
        Optional metrics registry the striped cells drain into and the
        span/metric bridges publish to.
    default_rate:
        Head-sampling probability for routes without an explicit rate.
        The default of 1 records every trace (fits, experiments); the
        serving stack passes
        :data:`~repro.observability.propagation.DEFAULT_SAMPLE_RATE`.
    route_rates:
        Per-route overrides, e.g. ``{"topk": 0.05, "score": 0.0}``.
    buffer_size:
        Bound on retained finished traces (sampled or errored).
    cells:
        Optional shared :class:`~repro.observability.cells.CellBank`;
        by default the tracer owns a private bank over ``registry``.

    Examples
    --------
    >>> tracer = Tracer()
    >>> with tracer.trace("fit") as trace:
    ...     with tracer.span("outer"):
    ...         with tracer.span("inner"):
    ...             tracer.count("steps")
    >>> [s.name for s in trace.spans()]
    ['request.fit', 'outer', 'inner']
    >>> tracer.counters["steps"]
    1
    """

    enabled: bool = True

    def __init__(
        self,
        registry=None,
        default_rate: float = 1.0,
        route_rates: Optional[Dict[str, float]] = None,
        buffer_size: int = 256,
        cells: Optional[CellBank] = None,
    ) -> None:
        self.cells = cells if cells is not None else CellBank()
        if registry is not None:
            self.registry = registry
        self.default_rate = float(default_rate)
        self.route_rates = dict(route_rates or {})
        self._default_threshold = sampling_threshold(self.default_rate)
        self._route_thresholds = {
            route: sampling_threshold(rate)
            for route, rate in self.route_rates.items()
        }
        self._buffer: deque = deque(maxlen=int(buffer_size))
        self._buffer_lock = threading.Lock()
        self._hot: Dict[str, Any] = {}
        self._c_started = self.cells.counter(
            "trace.started",
            help="Traces opened (requests at the edge, fits).",
            registry_name="trace.started",
        )
        self._c_sampled = self.cells.counter(
            "trace.sampled",
            help="Traces head-sampled into full span capture.",
            registry_name="trace.sampled",
        )
        self._c_errors = self.cells.counter(
            "trace.errors",
            help="Traces promoted to the buffer by an error.",
            registry_name="trace.errors",
        )

    @property
    def registry(self):
        """The registry the cells drain into (set after construction too)."""
        return self.cells.registry

    @registry.setter
    def registry(self, registry) -> None:
        self.cells.registry = registry

    def _bridging(self) -> bool:
        registry = self.cells.registry
        return registry is not None and registry.enabled

    # -- counters over striped cells -------------------------------------

    @property
    def counters(self) -> Dict[str, Any]:
        """Merged striped-cell totals (ints where integral)."""
        merged: Dict[str, Any] = {}
        for name, total in self.cells.counter_totals().items():
            merged[name] = int(total) if total.is_integer() else total
        return merged

    def count(self, name: str, value: int = 1) -> None:
        """Increment a striped counter (no lock on the record path)."""
        try:
            cell = self._hot[name]
        except KeyError:
            cell = self.hot_counter(name)
        cell.inc(value)

    def hot_counter(self, name: str, registry_name: Optional[str] = None):
        """The striped cell for ``name`` — bind once, ``.inc()`` per hit."""
        cell = self._hot.get(name)
        if cell is None:
            cell = self.cells.counter(
                name,
                registry_name=registry_name or _COUNTER_BRIDGE.get(name),
            )
            self._hot[name] = cell
        return cell

    def hot_histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        registry_name: Optional[str] = None,
    ):
        """A striped histogram handle (power-of-two bucket index)."""
        return self.cells.histogram(
            name,
            buckets=buckets or DEFAULT_LATENCY_BUCKETS,
            registry_name=registry_name,
        )

    def drain(self) -> None:
        """Flush striped cells into the attached registry."""
        self.cells.drain()

    # -- metric streams and iteration records ----------------------------

    def metric(self, name: str, value: float) -> None:
        """Append one sample to the bound sampled trace's metric stream."""
        trace = _sampled_trace()
        if trace is not None:
            trace.add_metric(name, value)
        if self._bridging():
            series = _GAUGE_BRIDGE.get(name)
            if series is not None:
                self.registry.gauge(series).set(value)
            histogram = _HISTOGRAM_BRIDGE.get(name)
            if histogram is not None:
                self.registry.histogram(histogram).observe(value)

    def record_iteration(self, record: IterationRecord) -> None:
        """Attach a solver iteration record to the bound sampled trace."""
        trace = _sampled_trace()
        if trace is not None:
            trace.add_iteration(record)
        if self._bridging():
            self.registry.counter("solver.iterations").inc()
            if record.objective is not None:
                self.registry.gauge("solver.objective").set(record.objective)

    # -- sampling ---------------------------------------------------------

    def sample_rate_for(self, route: str) -> float:
        """The effective head-sampling rate for ``route``."""
        return self.route_rates.get(route, self.default_rate)

    def _threshold_for(self, route: str) -> int:
        return self._route_thresholds.get(route, self._default_threshold)

    # -- traces -----------------------------------------------------------

    @contextmanager
    def trace(
        self,
        route: str,
        trace_id: Optional[str] = None,
        parent: Optional[TraceContext] = None,
        request_id: Optional[str] = None,
    ) -> Iterator[ActiveTrace]:
        """Open one trace; sampling decided here, once.

        ``parent`` (a cross-hop :class:`TraceContext`) pins both the
        trace id and the upstream sampling verdict; otherwise the
        decision is a pure function of the (given or minted) trace id,
        so it is reproducible offline.  The record commits to the
        finished-trace buffer iff sampled or errored; exceptions raised
        inside the block mark the trace errored and propagate.

        Opened while a trace of this tracer is already bound, it opens a
        ``route`` child span of that trace instead and yields the outer
        record, so an experiment, its folds and their fits form one tree.
        """
        carrier = _ACTIVE.get()
        if carrier.__class__ is ActiveTrace and carrier.tracer is self:
            with self.span(route):
                yield carrier
            return
        if parent is not None:
            context = TraceContext(
                parent.trace_id, new_span_id(), parent.sampled
            )
        else:
            tid = trace_id if trace_id else new_trace_id()
            context = TraceContext(
                tid,
                new_span_id(),
                sampled_below(tid, self._threshold_for(route)),
            )
        record = ActiveTrace(self, context, route, request_id)
        self._c_started.inc()
        token = _ACTIVE.set(record)
        start = time.perf_counter()
        try:
            yield record
        except BaseException as exc:
            record.mark_error(f"{type(exc).__name__}: {exc}")
            raise
        finally:
            _ACTIVE.reset(token)
            record.duration = time.perf_counter() - start
            self._finish(record)

    def _finish(self, record: ActiveTrace) -> None:
        if record.sampled:
            self._c_sampled.inc()
        if record.error:
            self._c_errors.inc()
        if record.sampled or record.error:
            root = record.ensure_root()
            root.duration = record.duration
            if record.error_message and root.error is None:
                root.error = record.error_message
            with self._buffer_lock:
                self._buffer.append(record)

    def finished(self) -> List[ActiveTrace]:
        """Committed traces, oldest first (bounded by ``buffer_size``)."""
        with self._buffer_lock:
            return list(self._buffer)

    def find_trace(self, trace_id: str) -> Optional[ActiveTrace]:
        """The most recent committed trace with ``trace_id``, if any."""
        with self._buffer_lock:
            for record in reversed(self._buffer):
                if record.context.trace_id == trace_id:
                    return record
        return None

    # -- spans ------------------------------------------------------------

    def span(self, name: str):
        """A span scoped to the bound trace's sampling verdict.

        Outside any trace this is (nearly) free: bridge-mapped names get
        a timing shim, everything else the shared null span.
        """
        carrier = _ACTIVE.get()
        if carrier is not None and carrier.__class__ is ActiveTrace:
            if carrier.sampled:
                return _RecordedSpan(self, carrier, name)
            return _WatchSpan(self, carrier, name)
        if name in _SPAN_HISTOGRAMS or _profiler.TRACKING:
            return _BridgedSpan(self, name)
        return _NULL_SPAN

    def _bridge_span(self, name: str, duration: float) -> None:
        """Feed a span duration into its mapped registry histogram."""
        if self._bridging():
            series = _SPAN_HISTOGRAMS.get(name)
            if series is not None:
                self.registry.histogram(series).observe(duration)


class _NullCell:
    """Shared do-nothing hot counter/histogram for :class:`NullTracer`."""

    __slots__ = ()

    def inc(self, value: float = 1.0) -> None:
        """Discard the increment."""
        return None

    def observe(self, value: float) -> None:
        """Discard the sample."""
        return None


_NULL_CELL = _NullCell()


class NullTracer:
    """A tracer whose every operation is a free no-op.

    ``enabled`` is False so instrumented code skips any extra
    computation; nothing is allocated and no registry is ever touched.
    """

    enabled = False
    registry = None
    counters: Dict[str, Any] = {}

    def span(self, name: str):
        """Return the shared do-nothing span context manager."""
        return _NULL_SPAN

    @contextmanager
    def trace(
        self,
        route: str,
        trace_id: Optional[str] = None,
        parent: Optional[Any] = None,
        request_id: Optional[str] = None,
    ) -> Iterator[Any]:
        """Yield the shared inert trace without recording anything."""
        yield _INERT_TRACE

    def count(self, name: str, value: int = 1) -> None:
        """Discard the counter increment."""
        return None

    def metric(self, name: str, value: float) -> None:
        """Discard the metric sample."""
        return None

    def record_iteration(self, record: IterationRecord) -> None:
        """Discard the iteration record."""
        return None

    def hot_counter(self, name: str, registry_name: Optional[str] = None):
        """Return the shared do-nothing hot-counter handle."""
        return _NULL_CELL

    def hot_histogram(
        self,
        name: str,
        buckets: Optional[Any] = None,
        registry_name: Optional[str] = None,
    ):
        """Return the shared do-nothing hot-histogram handle."""
        return _NULL_CELL

    def drain(self) -> None:
        """Nothing to flush."""
        return None


NULL_TRACER = NullTracer()
"""The shared null tracer solvers fall back to when given ``None``."""


def is_tracing(tracer: Optional[Any]) -> bool:
    """Whether ``tracer`` is a live (non-null) tracer."""
    return tracer is not None and tracer.enabled
