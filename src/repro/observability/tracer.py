"""Structured tracing of solver runs: nested timed spans, counters, metrics.

Two implementations share one interface:

* :class:`Tracer` — records everything: a tree of wall-clock
  :class:`Span` objects (CCCP round → gradient step → prox apply → SVD),
  monotonic counters, named scalar metric streams and the shared
  per-iteration :class:`~repro.observability.records.IterationRecord` list.
* :class:`NullTracer` — every operation is a no-op and ``enabled`` is
  False, so instrumented code can gate any extra computation (the
  per-round objective, tail-singular-value probes) behind
  ``tracer.enabled`` and the untraced hot path stays bit-identical to —
  and as fast as — the uninstrumented code.

Solvers accept ``tracer=None`` and run on the shared :data:`NULL_TRACER`
instead, so one loop serves traced and untraced runs and callers never
pay for observability they did not ask for.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

import repro.observability.profiler as _profiler
from repro.observability.records import IterationRecord

# Solver-side bridge into a MetricsRegistry: which tracer events surface as
# which registry series.  Span durations, counters and metric samples not
# named here stay tracer-only (they still land in run reports).
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
    """One timed region of a run; spans nest to form a tree."""

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


class _InertTrace:
    """What :meth:`Tracer.trace` yields when nothing is recorded.

    Shares the request-trace surface (``context``, ``sampled``,
    ``mark_error``) so HTTP-edge code is tracer-agnostic; every field is
    a class attribute and the single instance is reused.
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


class _CounterAdapter:
    """A hot-counter handle backed by ``tracer.count`` (full tracers)."""

    __slots__ = ("_tracer", "_name")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def inc(self, value: float = 1.0) -> None:
        """Forward the increment to the owning tracer's counter."""
        self._tracer.count(self._name, value)


class _HistogramAdapter:
    """A hot-histogram handle backed by ``tracer.metric`` (full tracers)."""

    __slots__ = ("_tracer", "_name")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def observe(self, value: float) -> None:
        """Forward the sample to the owning tracer's metric stream."""
        self._tracer.metric(self._name, value)


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


class Tracer:
    """Collects spans, counters, metrics and iteration records of one run.

    Examples
    --------
    >>> tracer = Tracer()
    >>> with tracer.span("outer"):
    ...     with tracer.span("inner"):
    ...         tracer.count("steps")
    >>> [s.name for s in tracer.iter_spans()]
    ['outer', 'inner']
    >>> tracer.counters["steps"]
    1
    """

    enabled: bool = True

    def __init__(self, registry=None) -> None:
        self.roots: List[Span] = []
        self._counter_store: Dict[str, int] = {}
        self.metrics: Dict[str, List[float]] = {}
        self.iterations: List[IterationRecord] = []
        self._stack: List[Span] = []
        # Optional MetricsRegistry bridge: when attached (and enabled),
        # solver events additionally publish scrapeable series
        # (solver.svt_seconds, solver.objective, solver.rank, …).
        self.registry = registry

    @property
    def counters(self) -> Dict[str, int]:
        """Monotonic counters recorded so far, keyed by name.

        A property so subclasses (:class:`SamplingTracer
        <repro.observability.sampling.SamplingTracer>`) can materialize
        the view from striped cells instead of a plain dict.
        """
        return self._counter_store

    def _bridging(self) -> bool:
        registry = self.registry
        return registry is not None and registry.enabled

    # -- spans ----------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Time a named region; nests under the currently open span."""
        node = Span(name=name, start=time.perf_counter())
        if self._stack:
            self._stack[-1].children.append(node)
        else:
            self.roots.append(node)
        self._stack.append(node)
        tracking = _profiler.TRACKING
        if tracking:
            _profiler.push_label(name)
        try:
            yield node
        finally:
            node.duration = time.perf_counter() - node.start
            self._stack.pop()
            if tracking:
                _profiler.pop_label()
            if self._bridging():
                series = _SPAN_HISTOGRAMS.get(name)
                if series is not None:
                    self.registry.histogram(series).observe(node.duration)

    # -- request traces --------------------------------------------------
    @contextmanager
    def trace(
        self,
        route: str,
        trace_id: Optional[str] = None,
        parent: Optional[Any] = None,
        request_id: Optional[str] = None,
    ) -> Iterator[Any]:
        """Open one request-scoped trace around a served route.

        The base tracer records it as a plain ``request.<route>`` span
        and yields the shared inert trace handle (no context, no
        sampling); :class:`SamplingTracer
        <repro.observability.sampling.SamplingTracer>` overrides this
        with real trace contexts, head sampling and error promotion.
        """
        with self.span(f"request.{route}"):
            yield _INERT_TRACE

    # -- hot-tier handles ------------------------------------------------
    def hot_counter(self, name: str, registry_name: Optional[str] = None):
        """A pre-bindable ``.inc()`` handle for a hot-path counter.

        Serving code binds these once at construction so the per-request
        cost is a single method call.  The base tracer adapts onto
        :meth:`count`; :class:`SamplingTracer
        <repro.observability.sampling.SamplingTracer>` returns a
        lock-free striped cell draining into ``registry_name``.
        """
        return _CounterAdapter(self, name)

    def hot_histogram(
        self,
        name: str,
        buckets: Optional[Any] = None,
        registry_name: Optional[str] = None,
    ):
        """A pre-bindable ``.observe()`` handle for a hot-path histogram.

        Base-tracer counterpart of :meth:`hot_counter`: adapts onto
        :meth:`metric`; the sampling tracer returns a striped histogram
        with a power-of-two bucket index.
        """
        return _HistogramAdapter(self, name)

    def drain(self) -> None:
        """Flush hot-tier cells into the registry (no-op on the base)."""
        return None

    def iter_spans(self) -> Iterator[Span]:
        """Depth-first iteration over every recorded span."""
        for root in self.roots:
            yield from root.iter_spans()

    def phase_totals(self) -> Dict[str, Dict[str, float]]:
        """Aggregate wall-clock per span name: ``{name: {count, seconds}}``."""
        totals: Dict[str, Dict[str, float]] = {}
        for node in self.iter_spans():
            slot = totals.setdefault(node.name, {"count": 0, "seconds": 0.0})
            slot["count"] += 1
            slot["seconds"] += node.duration
        return totals

    # -- counters & metrics ---------------------------------------------
    def count(self, name: str, value: int = 1) -> None:
        """Increment a monotonic counter."""
        store = self._counter_store
        store[name] = store.get(name, 0) + int(value)
        if self._bridging():
            series = _COUNTER_BRIDGE.get(name)
            if series is not None:
                self.registry.counter(series).inc(value)

    def metric(self, name: str, value: float) -> None:
        """Append one sample to a named scalar metric stream."""
        self.metrics.setdefault(name, []).append(float(value))
        if self._bridging():
            series = _GAUGE_BRIDGE.get(name)
            if series is not None:
                self.registry.gauge(series).set(value)
            histogram = _HISTOGRAM_BRIDGE.get(name)
            if histogram is not None:
                self.registry.histogram(histogram).observe(value)

    def last_metric(self, name: str, default: Optional[float] = None):
        """The most recent sample of a metric, or ``default`` if unseen."""
        samples = self.metrics.get(name)
        return samples[-1] if samples else default

    # -- iteration records ----------------------------------------------
    def record_iteration(self, record: IterationRecord) -> None:
        """Attach a solver iteration record to the trace (shared object)."""
        self.iterations.append(record)
        if self._bridging():
            self.registry.counter("solver.iterations").inc()
            if record.objective is not None:
                self.registry.gauge("solver.objective").set(record.objective)


class _NullSpan:
    """Reusable do-nothing span context manager."""

    name = ""
    duration = 0.0
    children: List[Span] = []

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """A tracer whose every operation is a free no-op.

    ``enabled`` is False so instrumented code skips any extra computation;
    the remaining methods are overridden to avoid even allocation, making
    the instrumented solver path cost nothing when tracing is off.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def span(self, name: str):  # type: ignore[override]
        """Return the shared do-nothing span context manager."""
        return _NULL_SPAN

    def count(self, name: str, value: int = 1) -> None:
        """Discard the counter increment."""
        return None

    def metric(self, name: str, value: float) -> None:
        """Discard the metric sample."""
        return None

    def record_iteration(self, record: IterationRecord) -> None:
        """Discard the iteration record."""
        return None

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


NULL_TRACER = NullTracer()
"""The shared null tracer solvers fall back to when given ``None``."""


def is_tracing(tracer: Optional[Tracer]) -> bool:
    """Whether ``tracer`` is a live (non-null) tracer."""
    return tracer is not None and tracer.enabled
