"""Dependency-free metrics: counters, gauges, histograms, Prometheus text.

The registry is the aggregation half of the observability subsystem (the
:class:`~repro.observability.tracer.Tracer` is the per-run half): serving
and solver code publish into one :class:`MetricsRegistry`, and a scraper
reads the whole thing back as Prometheus text format from ``/metrics``.

Three metric kinds, all thread-safe and all supporting labels:

* :class:`Counter` — monotonically increasing (requests, cache hits);
* :class:`Gauge` — a settable level (uptime, current objective, rank);
* :class:`Histogram` — cumulative fixed buckets (latency, batch sizes)
  plus a bounded streaming window from which p50/p95/p99 are read back
  without a scrape (:meth:`Histogram.quantile`).

Mirroring the ``Tracer``/``NullTracer`` contract, :class:`NullRegistry`
turns every operation into a free no-op and reports ``enabled = False``,
so instrumented code can gate optional work and the disabled hot path
costs nothing beyond an attribute load.

Only the standard library is used — the registry runs in the same
numpy-only container as the serving stack.
"""

from __future__ import annotations

import math
import threading
import time
from bisect import bisect_left
from collections import deque
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
    "BATCH_SIZE_BUCKETS",
    "prometheus_name",
]

DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)
"""Latency buckets (seconds) spanning cache hits to cold paper-scale fits."""

BATCH_SIZE_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)
"""Coalesce-size buckets for the micro-batcher histogram."""

_QUANTILE_WINDOW = 1024
"""Observations retained per histogram child for streaming quantiles."""


def prometheus_name(name: str) -> str:
    """Map a dotted registry name to a legal Prometheus metric name."""
    sanitized = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    if sanitized and sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def _escape_label(value: str) -> str:
    """Escape a label value per the Prometheus text-format rules."""
    return (
        str(value)
        .replace("\\", r"\\")
        .replace("\n", r"\n")
        .replace('"', r'\"')
    )


def _escape_help(text: str) -> str:
    """Escape HELP text per the Prometheus text-format rules.

    HELP lines escape only backslash and newline (quotes stay literal,
    unlike label values), so a help string containing either still
    round-trips through a text-format parser as one line.
    """
    return str(text).replace("\\", r"\\").replace("\n", r"\n")


def _render_labels(names: Sequence[str], values: Sequence[str]) -> str:
    if not names:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(names, values)
    )
    return "{" + inner + "}"


class _QuantileSummary:
    """Bounded sliding window of the most recent observations.

    A full streaming sketch is overkill at serving scale; a 1024-sample
    window answers "what are p50/p95/p99 *right now*" with bounded memory.
    Callers must hold the owning metric's lock.
    """

    __slots__ = ("_window",)

    def __init__(self, window: int = _QUANTILE_WINDOW):
        self._window: deque = deque(maxlen=window)

    def add(self, value: float) -> None:
        self._window.append(value)

    def quantile(self, q: float) -> float:
        """The q-quantile (0..1) of the window; NaN when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._window:
            return math.nan
        ordered = sorted(self._window)
        index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return float(ordered[index])

    def __len__(self) -> int:
        return len(self._window)


class _Metric:
    """Shared plumbing of one child (one label-value combination)."""

    __slots__ = ("_lock",)

    def __init__(self) -> None:
        self._lock = threading.Lock()


class Counter(_Metric):
    """A monotonically increasing count."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        super().__init__()
        self._value = 0.0

    def inc(self, value: float = 1.0) -> None:
        """Add ``value`` (must be >= 0) to the counter."""
        if value < 0:
            raise ValueError(f"counters only go up, got increment {value}")
        with self._lock:
            self._value += value

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _set_total(self, value: float) -> None:
        """Overwrite the total (monotone: never moves the counter down).

        This is the drain target for lock-striped hot-tier cells
        (:mod:`repro.observability.cells`): the drain recomputes the
        merged total from per-thread cells and *overwrites* the registry
        series to match, which is idempotent and exact at quiescence.
        The max() guard keeps the series monotone if a racing drain
        observed a slightly staler merge.
        """
        with self._lock:
            self._value = max(self._value, float(value))


class Gauge(_Metric):
    """A level that can go up and down."""

    __slots__ = ("_value",)

    def __init__(self) -> None:
        super().__init__()
        self._value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        with self._lock:
            self._value = float(value)

    def inc(self, value: float = 1.0) -> None:
        """Add ``value`` (may be negative)."""
        with self._lock:
            self._value += value

    def dec(self, value: float = 1.0) -> None:
        """Subtract ``value``."""
        self.inc(-value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class _Timer:
    """Context manager observing its wall-clock duration into a histogram."""

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: "Histogram"):
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self._histogram.observe(time.perf_counter() - self._start)


class Histogram(_Metric):
    """Cumulative fixed-bucket histogram plus a streaming quantile window."""

    __slots__ = ("_buckets", "_counts", "_sum", "_count", "_summary")

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        super().__init__()
        ordered = tuple(float(b) for b in buckets)
        if not ordered:
            raise ValueError("histogram needs at least one bucket bound")
        if list(ordered) != sorted(set(ordered)):
            raise ValueError(
                f"bucket bounds must be strictly increasing, got {buckets}"
            )
        self._buckets = ordered
        self._counts = [0] * len(ordered)
        self._sum = 0.0
        self._count = 0
        self._summary = _QuantileSummary()

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        index = bisect_left(self._buckets, value)
        with self._lock:
            if index < len(self._counts):
                self._counts[index] += 1
            self._sum += value
            self._count += 1
            self._summary.add(value)

    def time(self) -> _Timer:
        """``with histogram.time():`` — observe the block's duration."""
        return _Timer(self)

    def quantile(self, q: float) -> float:
        """Streaming q-quantile over the recent-observation window."""
        with self._lock:
            return self._summary.quantile(q)

    def snapshot(self) -> Dict[str, float]:
        """Count, sum and p50/p95/p99 of the recent window (one lock hold)."""
        with self._lock:
            return {
                "count": self._count,
                "sum": self._sum,
                "p50": self._summary.quantile(0.50),
                "p95": self._summary.quantile(0.95),
                "p99": self._summary.quantile(0.99),
            }

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def _cumulative(self) -> Tuple[List[int], float, int]:
        """(cumulative bucket counts, sum, count) under the lock."""
        with self._lock:
            running, cumulative = 0, []
            for bucket_count in self._counts:
                running += bucket_count
                cumulative.append(running)
            return cumulative, self._sum, self._count

    def _set_state(
        self,
        bucket_counts: Sequence[int],
        total_sum: float,
        total_count: int,
        window: Sequence[float],
    ) -> None:
        """Overwrite the histogram to a merged striped-cell state.

        Drain target for :class:`repro.observability.cells.StripedHistogram`:
        ``bucket_counts`` are per-bucket (non-cumulative) counts aligned
        with this histogram's bounds, ``window`` replaces the recent
        quantile window.  Monotone guard as in :meth:`Counter._set_total`.
        """
        counts = [int(c) for c in bucket_counts]
        if len(counts) != len(self._counts):
            raise ValueError(
                f"expected {len(self._counts)} bucket counts, "
                f"got {len(counts)}"
            )
        with self._lock:
            if int(total_count) < self._count:
                return  # stale merge; a fresher drain already landed
            self._counts = counts
            self._sum = float(total_sum)
            self._count = int(total_count)
            self._summary._window.clear()
            self._summary._window.extend(float(v) for v in window)


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """One named metric family: shared help/type plus per-label children."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        label_names: Tuple[str, ...],
        buckets: Optional[Sequence[float]] = None,
    ):
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = label_names
        self._buckets = buckets
        self._children: Dict[Tuple[str, ...], _Metric] = {}
        self._lock = threading.Lock()

    def labels(self, **labels: str) -> _Metric:
        """The child metric for one combination of label values."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if self.kind == "histogram":
                    child = Histogram(self._buckets or DEFAULT_LATENCY_BUCKETS)
                else:
                    child = _KINDS[self.kind]()
                self._children[key] = child
            return child

    def children(self) -> List[Tuple[Tuple[str, ...], _Metric]]:
        """Stable-ordered (label values, child) pairs."""
        with self._lock:
            return sorted(self._children.items())


class _FamilyHandle:
    """What ``registry.counter(...)`` returns: the family, callable as its
    unlabeled child when no labels were declared."""

    __slots__ = ("_family", "_default")

    def __init__(self, family: _Family):
        self._family = family
        self._default = family.labels() if not family.label_names else None

    def labels(self, **labels: str) -> _Metric:
        """The child for one label-value combination."""
        return self._family.labels(**labels)

    def _unlabeled(self) -> _Metric:
        if self._default is None:
            raise ValueError(
                f"metric {self._family.name!r} declares labels "
                f"{self._family.label_names}; call .labels(...) first"
            )
        return self._default

    # Convenience pass-throughs for the (common) unlabeled case.
    def inc(self, value: float = 1.0) -> None:
        """Increment the unlabeled child."""
        self._unlabeled().inc(value)  # type: ignore[union-attr]

    def dec(self, value: float = 1.0) -> None:
        """Decrement the unlabeled gauge child."""
        self._unlabeled().dec(value)  # type: ignore[union-attr]

    def set(self, value: float) -> None:
        """Set the unlabeled gauge child."""
        self._unlabeled().set(value)  # type: ignore[union-attr]

    def observe(self, value: float) -> None:
        """Observe into the unlabeled histogram child."""
        self._unlabeled().observe(value)  # type: ignore[union-attr]

    def time(self) -> _Timer:
        """Time a block into the unlabeled histogram child."""
        return self._unlabeled().time()  # type: ignore[union-attr]

    def quantile(self, q: float) -> float:
        """Streaming quantile of the unlabeled histogram child."""
        return self._unlabeled().quantile(q)  # type: ignore[union-attr]

    def snapshot(self) -> Dict[str, float]:
        """Snapshot of the unlabeled histogram child."""
        return self._unlabeled().snapshot()  # type: ignore[union-attr]

    @property
    def value(self) -> float:
        """Value of the unlabeled counter/gauge child."""
        return self._unlabeled().value  # type: ignore[union-attr]


class MetricsRegistry:
    """A process-wide family registry with Prometheus text exposition.

    Parameters
    ----------
    namespace:
        Prefix prepended (``<namespace>_``) to every exposed metric name.

    Examples
    --------
    >>> registry = MetricsRegistry()
    >>> registry.counter("demo.requests", help="requests served").inc()
    >>> hist = registry.histogram("demo.latency_seconds", labels=("route",))
    >>> hist.labels(route="topk").observe(0.003)
    >>> "repro_demo_requests_total 1" in registry.render()
    True
    """

    enabled: bool = True

    def __init__(self, namespace: str = "repro"):
        self.namespace = namespace
        self._families: Dict[str, _FamilyHandle] = {}
        self._lock = threading.Lock()

    # -- declaration ----------------------------------------------------
    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> _FamilyHandle:
        label_names = tuple(labels)
        with self._lock:
            handle = self._families.get(name)
            if handle is not None:
                family = handle._family
                if family.kind != kind or family.label_names != label_names:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{family.kind} with labels {family.label_names}"
                    )
                return handle
            handle = _FamilyHandle(
                _Family(name, kind, help, label_names, buckets)
            )
            self._families[name] = handle
            return handle

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> _FamilyHandle:
        """Register (or fetch) a counter family."""
        return self._family(name, "counter", help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> _FamilyHandle:
        """Register (or fetch) a gauge family."""
        return self._family(name, "gauge", help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> _FamilyHandle:
        """Register (or fetch) a histogram family with fixed buckets."""
        return self._family(name, "histogram", help, labels, buckets)

    # -- read-back ------------------------------------------------------
    def families(self) -> List[str]:
        """Registered family names, sorted."""
        with self._lock:
            return sorted(self._families)

    def get(self, name: str) -> Optional[_FamilyHandle]:
        """The family handle for ``name``, or ``None`` if unregistered."""
        with self._lock:
            return self._families.get(name)

    def _iter_families(self) -> Iterator[_Family]:
        with self._lock:
            handles = [self._families[name] for name in sorted(self._families)]
        for handle in handles:
            yield handle._family

    def render(self) -> str:
        """The whole registry as Prometheus text format (version 0.0.4)."""
        lines: List[str] = []
        for family in self._iter_families():
            exposed = f"{self.namespace}_{prometheus_name(family.name)}"
            if family.kind == "counter" and not exposed.endswith("_total"):
                exposed += "_total"
            if family.help:
                lines.append(
                    f"# HELP {exposed} {_escape_help(family.help)}"
                )
            lines.append(f"# TYPE {exposed} {family.kind}")
            for values, child in family.children():
                if family.kind == "histogram":
                    lines.extend(
                        self._render_histogram(
                            exposed, family, values, child  # type: ignore[arg-type]
                        )
                    )
                else:
                    labels = _render_labels(family.label_names, values)
                    lines.append(
                        f"{exposed}{labels} {_format_value(child.value)}"  # type: ignore[union-attr]
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    @staticmethod
    def _render_histogram(
        exposed: str,
        family: _Family,
        values: Tuple[str, ...],
        child: Histogram,
    ) -> List[str]:
        cumulative, total_sum, total_count = child._cumulative()
        lines = []
        label_names = family.label_names
        for bound, running in zip(child._buckets, cumulative):
            labels = _render_labels(
                label_names + ("le",), values + (_format_value(bound),)
            )
            lines.append(f"{exposed}_bucket{labels} {running}")
        inf_labels = _render_labels(
            label_names + ("le",), values + ("+Inf",)
        )
        lines.append(f"{exposed}_bucket{inf_labels} {total_count}")
        plain = _render_labels(label_names, values)
        lines.append(f"{exposed}_sum{plain} {_format_value(total_sum)}")
        lines.append(f"{exposed}_count{plain} {total_count}")
        return lines


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus expects (ints unpadded)."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


class _NullMetric:
    """One shared do-nothing child standing in for every metric kind."""

    def labels(self, **labels: str) -> "_NullMetric":
        """Return itself — label combinations are not tracked."""
        return self

    def inc(self, value: float = 1.0) -> None:
        """Discard."""

    def dec(self, value: float = 1.0) -> None:
        """Discard."""

    def set(self, value: float) -> None:
        """Discard."""

    def observe(self, value: float) -> None:
        """Discard."""

    def time(self) -> "_NullTimer":
        """A timer that never reads the clock."""
        return _NULL_TIMER

    def quantile(self, q: float) -> float:
        """NaN — nothing was recorded."""
        return math.nan

    def snapshot(self) -> Dict[str, float]:
        """An empty snapshot."""
        return {
            "count": 0, "sum": 0.0,
            "p50": math.nan, "p95": math.nan, "p99": math.nan,
        }

    @property
    def value(self) -> float:
        return 0.0


class _NullTimer:
    """Do-nothing timer context manager."""

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_METRIC = _NullMetric()
_NULL_TIMER = _NullTimer()


class NullRegistry(MetricsRegistry):
    """A registry whose every operation is a free no-op.

    Mirrors the :class:`~repro.observability.tracer.NullTracer` contract:
    ``enabled`` is False so instrumented code can skip optional work, every
    ``counter``/``gauge``/``histogram`` call returns one shared no-op child
    (no allocation, no locking), and ``render()`` is empty.  Constructing a
    service with ``registry=NullRegistry()`` restores the uninstrumented
    hot path.
    """

    enabled = False

    def _family(self, name, kind, help, labels, buckets=None):  # type: ignore[override]
        """Return the shared no-op metric regardless of kind or labels."""
        return _NULL_METRIC

    def render(self) -> str:
        """Nothing is ever recorded."""
        return ""


NULL_REGISTRY = NullRegistry()
"""Shared null registry for ``registry or NULL_REGISTRY`` defaulting."""
