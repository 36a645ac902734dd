"""Hot-tier lock-striped metric cells drained into the Prometheus registry.

The registry's :class:`~repro.observability.metrics.Counter` and
:class:`~repro.observability.metrics.Histogram` take a lock per record,
which cost ~20% of request latency on the top-k hot path (cold top-k
medians, instrumented vs ``NullTracer``/``NullRegistry``).  This module
is the hot tier that removes that cost:

* :class:`StripedCounter` / :class:`StripedHistogram` keep one **cell
  per recording thread** (``threading.local``).  The record path is an
  attribute lookup plus a float add / list increment — no lock, no
  allocation; the only lock is taken once per thread's *first* record,
  to register its cell with the drainer.
* :class:`PowerOfTwoBucketIndex` turns histogram bucket search into a
  precomputed power-of-two table lookup (via :func:`math.frexp`) plus a
  bounded linear probe, replacing :func:`bisect.bisect_left` per sample.
* :class:`CellBank` owns the striped metrics and the **drain**: it
  recomputes merged totals across cells and *overwrites* the matching
  registry series (``Counter._set_total`` / ``Histogram._set_state``).
  Overwrite-to-match is idempotent and exact at quiescence — no delta
  bookkeeping, no lost increments — at the price that a striped series
  must only ever be written through its cells (never mixed with direct
  registry ``.inc()``).
* :class:`CellAggregator` is the optional background thread that drains
  on a cadence; scrape paths also drain synchronously, so the thread is
  only needed for freshness between scrapes and is never started by
  plain construction (the no-telemetry path spawns nothing).

Cross-thread visibility relies on the CPython GIL: the owner thread
writes its cell, the drainer reads it; reads may be one increment stale
mid-flight but converge exactly once writers quiesce, which the drain
exactness tests pin down.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.observability.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    _QUANTILE_WINDOW,
    _QuantileSummary,
)


class PowerOfTwoBucketIndex:
    """Constant-time histogram bucket lookup from precomputed bounds.

    For strictly positive bounds the table maps a value's binary
    exponent (``math.frexp``) to the first candidate bucket, after which
    at most a few linear probes reach the exact ``bisect_left`` answer —
    the probe length is bounded by how many bounds share one octave.
    Non-positive bounds (or values) fall back to :func:`bisect_left`.
    """

    __slots__ = ("_bounds", "_n", "_min_exp", "_table")

    def __init__(self, bounds: Sequence[float]) -> None:
        self._bounds = tuple(float(b) for b in bounds)
        if list(self._bounds) != sorted(set(self._bounds)):
            raise ValueError(
                f"bucket bounds must be strictly increasing, got {bounds}"
            )
        self._n = len(self._bounds)
        if not self._bounds or self._bounds[0] <= 0.0:
            self._min_exp = 0
            self._table: Optional[Tuple[int, ...]] = None
            return
        self._min_exp = math.frexp(self._bounds[0])[1]
        max_exp = math.frexp(self._bounds[-1])[1]
        # table[e - min_exp] = first bucket that can hold the smallest
        # value whose frexp exponent is e (that value is 2**(e-1)).
        self._table = tuple(
            bisect_left(self._bounds, math.ldexp(0.5, exp))
            for exp in range(self._min_exp, max_exp + 1)
        )

    @property
    def bounds(self) -> Tuple[float, ...]:
        """The (sorted, strictly increasing) bucket upper bounds."""
        return self._bounds

    def __call__(self, value: float) -> int:
        """Bucket index for ``value`` — equals ``bisect_left(bounds, value)``."""
        bounds = self._bounds
        table = self._table
        if table is None or value <= 0.0:
            return bisect_left(bounds, value)
        if value > bounds[-1]:
            return self._n
        exp = math.frexp(value)[1]
        if exp < self._min_exp:
            return 0  # below the smallest bound's octave
        index = table[exp - self._min_exp]
        while bounds[index] < value:
            index += 1
        return index


class _CounterCell:
    """One thread's private count (owner writes, drainer reads)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0


class StripedCounter:
    """Lock-free-on-record counter striped across per-thread cells."""

    __slots__ = ("name", "_local", "_cells", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._local = threading.local()
        self._cells: List[_CounterCell] = []
        self._lock = threading.Lock()

    def _new_cell(self) -> _CounterCell:
        cell = _CounterCell()
        with self._lock:
            self._cells.append(cell)
        self._local.cell = cell
        return cell

    def inc(self, value: float = 1.0) -> None:
        """Add ``value`` to the calling thread's cell (no lock taken)."""
        try:
            cell = self._local.cell
        except AttributeError:
            cell = self._new_cell()
        cell.value += value

    def total(self) -> float:
        """Merged total across all cells (exact once writers quiesce)."""
        with self._lock:
            cells = list(self._cells)
        return sum((cell.value for cell in cells), 0.0)


class _HistogramCell:
    """One thread's private histogram shard (owner writes, drainer reads)."""

    __slots__ = ("counts", "sum", "count", "window")

    def __init__(self, n_buckets: int, window: int) -> None:
        self.counts = [0] * n_buckets
        self.sum = 0.0
        self.count = 0
        self.window: deque = deque(maxlen=window)


class StripedHistogram:
    """Lock-free-on-record histogram striped across per-thread cells.

    Bucketing uses :class:`PowerOfTwoBucketIndex`; each cell also keeps
    a bounded recent-value window so the drained registry histogram can
    answer p50/p95/p99 like a directly-observed one.
    """

    __slots__ = ("name", "_index", "_local", "_cells", "_lock", "_window")

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        window: int = _QUANTILE_WINDOW,
    ) -> None:
        self.name = name
        self._index = PowerOfTwoBucketIndex(buckets)
        self._local = threading.local()
        self._cells: List[_HistogramCell] = []
        self._lock = threading.Lock()
        self._window = int(window)

    @property
    def bounds(self) -> Tuple[float, ...]:
        """Bucket upper bounds (matches the registry histogram's)."""
        return self._index.bounds

    def _new_cell(self) -> _HistogramCell:
        cell = _HistogramCell(len(self._index.bounds), self._window)
        with self._lock:
            self._cells.append(cell)
        self._local.cell = cell
        return cell

    def observe(self, value: float) -> None:
        """Record one sample into the calling thread's cell (no lock)."""
        value = float(value)
        try:
            cell = self._local.cell
        except AttributeError:
            cell = self._new_cell()
        index = self._index(value)
        if index < len(cell.counts):
            cell.counts[index] += 1
        cell.sum += value
        cell.count += 1
        cell.window.append(value)

    def merged_state(self) -> Tuple[List[int], float, int, List[float]]:
        """(bucket counts, sum, count, merged window) across all cells.

        The merged window concatenates per-cell windows and keeps the
        most recent ``window`` values overall only in the sense of a
        bounded multiset — per-cell recency is preserved, cross-cell
        ordering is by cell registration, which is enough for quantiles.
        """
        with self._lock:
            cells = list(self._cells)
        n = len(self._index.bounds)
        counts = [0] * n
        total = 0.0
        count = 0
        window: List[float] = []
        for cell in cells:
            cell_counts = cell.counts
            for i in range(n):
                counts[i] += cell_counts[i]
            total += cell.sum
            count += cell.count
            window.extend(cell.window)
        if len(window) > self._window:
            window = window[-self._window:]
        return counts, total, count, window

    def snapshot(self) -> Dict[str, float]:
        """Merged count/sum/p50/p95/p99 (mirrors ``Histogram.snapshot``)."""
        _, total, count, window = self.merged_state()
        summary = _QuantileSummary(window=max(1, self._window))
        for value in window:
            summary.add(value)
        return {
            "count": count,
            "sum": total,
            "p50": summary.quantile(0.50),
            "p95": summary.quantile(0.95),
            "p99": summary.quantile(0.99),
        }


class CellBank:
    """Registry of striped metrics plus the drain that reconciles them.

    ``counter()``/``histogram()`` hand out striped metrics keyed by hot
    name; a ``registry_name`` links each to the Prometheus series the
    drain overwrites.  ``add_source()`` registers extra overwrite-style
    sync callbacks (e.g. the ranking cache pushing its exact internal
    tallies).  ``drain()`` is a no-op against a disabled registry, so
    the no-telemetry path costs nothing.
    """

    def __init__(self, registry: Optional[Any] = None) -> None:
        self.registry = registry
        self._lock = threading.Lock()
        self._counters: Dict[str, StripedCounter] = {}
        self._counter_targets: Dict[str, Tuple[str, str]] = {}
        self._histograms: Dict[str, StripedHistogram] = {}
        self._histogram_targets: Dict[str, Tuple[str, str]] = {}
        self._sources: List[Callable[[Any], None]] = []

    def counter(
        self,
        name: str,
        help: str = "",
        registry_name: Optional[str] = None,
    ) -> StripedCounter:
        """The striped counter for ``name`` (created on first use)."""
        counter = self._counters.get(name)
        if counter is None:
            with self._lock:
                counter = self._counters.get(name)
                if counter is None:
                    counter = StripedCounter(name)
                    self._counters[name] = counter
                    if registry_name:
                        self._counter_targets[name] = (registry_name, help)
        return counter

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
        help: str = "",
        registry_name: Optional[str] = None,
    ) -> StripedHistogram:
        """The striped histogram for ``name`` (created on first use)."""
        histogram = self._histograms.get(name)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = StripedHistogram(name, buckets=buckets)
                    self._histograms[name] = histogram
                    if registry_name:
                        self._histogram_targets[name] = (
                            registry_name,
                            help,
                        )
        return histogram

    def add_source(self, sync: Callable[[Any], None]) -> None:
        """Register an extra drain callback ``sync(registry)``."""
        with self._lock:
            self._sources.append(sync)

    def counter_totals(self) -> Dict[str, float]:
        """Merged totals of every striped counter, keyed by hot name."""
        with self._lock:
            counters = dict(self._counters)
        return {name: c.total() for name, c in counters.items()}

    def drain(self) -> None:
        """Overwrite linked registry series to match the merged cells."""
        registry = self.registry
        if registry is None or not getattr(registry, "enabled", True):
            return
        with self._lock:
            counter_targets = dict(self._counter_targets)
            histogram_targets = dict(self._histogram_targets)
            sources = list(self._sources)
        # Several hot names may roll up into one series: sum, then overwrite.
        totals: Dict[str, List[Any]] = {}
        for name, (series, help) in counter_targets.items():
            slot = totals.setdefault(series, [0.0, help])
            slot[0] += self._counters[name].total()
        for series, (total, help) in totals.items():
            registry.counter(series, help=help)._unlabeled()._set_total(total)
        for name, (series, help) in histogram_targets.items():
            striped = self._histograms[name]
            handle = registry.histogram(
                series, help=help, buckets=striped.bounds
            )
            counts, total, count, window = striped.merged_state()
            handle._unlabeled()._set_state(counts, total, count, window)
        for sync in sources:
            sync(registry)


class CellAggregator:
    """Background thread draining a :class:`CellBank` on a cadence.

    Never started implicitly — entry points that want continuous drains
    between scrapes (the serving CLI) call :meth:`start`; everything
    else relies on the synchronous drain at scrape time.
    """

    def __init__(self, bank: CellBank, interval_s: float = 1.0) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.bank = bank
        self.interval_s = float(interval_s)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    @property
    def running(self) -> bool:
        """Whether the drain thread is currently alive."""
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self) -> "CellAggregator":
        """Start the drain thread (idempotent)."""
        if self.running:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-metrics-aggregator", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread after one final drain."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None
        self.bank.drain()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.bank.drain()

    def __enter__(self) -> "CellAggregator":
        """Start on entry so ``with CellAggregator(bank):`` works."""
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        """Stop (with a final drain) when the ``with`` block exits."""
        self.stop()
