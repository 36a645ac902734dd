"""The in-process link-prediction service: score, top-k, hot-swap reload.

:class:`LinkPredictionService` is the one serving service — every
front-end (HTTP router, micro-batcher, CLI) talks to it — for dense,
factored and sharded artifacts alike.  It owns the artifact loaded from
its :class:`~repro.serving.artifacts.ArtifactStore`, the candidate
source that artifact builds (:mod:`repro.serving.candidates`, the only
code that differs per kind), the degraded tier built from the artifact's
graph, a :class:`~repro.serving.cache.RankingCache` of complete answers
keyed by ``(version, user, k)``, and a
:class:`~repro.observability.Tracer` through which every request path
records latency spans and counters (``serve.requests``,
``serve.cache_hit``, ``serve.reloads``, …).

``reload()`` hot-swaps to the store's newest version atomically under a
lock and *falls back to the artifact already being served* when the new
one fails integrity validation — a corrupt publish can never take the
service down.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    RetryExhaustedError,
    SerializationError,
    UnknownNodeError,
)
from repro.observability.cells import CellBank
from repro.observability.logging import get_logger
from repro.observability.metrics import MetricsRegistry
from repro.observability.propagation import DEFAULT_SAMPLE_RATE
from repro.observability.tracer import Tracer
from repro.reliability.breaker import OPEN, CircuitBreaker
from repro.reliability.faults import fault_point
from repro.reliability.retry import RetryPolicy, call_with_retry
from repro.serving.artifacts import ArtifactStore
from repro.serving.cache import RankingCache
from repro.serving.candidates import Ranking
from repro.serving.degraded import CommonNeighborScorer
from repro.utils.validation import check_integer

DEFAULT_LOAD_RETRY = RetryPolicy(
    max_attempts=3,
    base_delay=0.02,
    multiplier=2.0,
    max_delay=0.2,
    retry_on=(SerializationError, OSError),
)
"""Store reads are retried under this policy: a read racing a publish or a
transient I/O hiccup recovers in tens of milliseconds, while a genuinely
corrupt artifact exhausts the attempts quickly and surfaces as
:class:`~repro.exceptions.RetryExhaustedError` chaining the corruption."""

_log = get_logger("repro.serving.service")


class LinkPredictionService:
    """Serve link-prediction queries from the latest store artifact.

    Parameters
    ----------
    store:
        An :class:`~repro.serving.artifacts.ArtifactStore` or its path;
        the latest version is loaded at construction.  A sharded version
        loads leniently: a corrupt shard drops only that shard's
        candidates.
    cache_size:
        Capacity of the per-user ranking cache.
    tracer:
        Telemetry sink; a fresh :class:`~repro.observability.Tracer`
        sampling requests at
        :data:`~repro.observability.propagation.DEFAULT_SAMPLE_RATE`
        (striped counters, head-sampled spans) is created when omitted
        so ``stats()`` always has counters to report while the hot path
        stays lock-free.  Pass ``Tracer()`` to record every request's
        span tree; the finished-trace buffer stays bounded either way.
        A tracer built without a registry is attached to ``registry``,
        cells included, so its series reach ``/metrics``.
    version:
        Pin an explicit artifact version instead of the latest.
    registry:
        Scrapeable metrics sink
        (:class:`~repro.observability.metrics.MetricsRegistry`); a fresh
        live registry is created when omitted so ``/metrics`` always has
        series to expose.  Pass a
        :class:`~repro.observability.metrics.NullRegistry` (paired with a
        :class:`~repro.observability.NullTracer`) for the zero-overhead
        uninstrumented path.
    load_retry:
        The :class:`~repro.reliability.retry.RetryPolicy` for store reads
        (named ``artifact.load``); :data:`DEFAULT_LOAD_RETRY` when
        omitted.
    reload_breaker:
        The :class:`~repro.reliability.breaker.CircuitBreaker` guarding
        ``reload()``; a breaker named ``reload`` (3 failures, 5 s
        recovery) is created when omitted.
    cells:
        Optional shared :class:`~repro.observability.cells.CellBank` for
        the hot-tier striped metrics; a private bank over ``registry``
        is created when omitted.  Pass one explicitly to share cells
        between the service, its tracer and a
        :class:`~repro.observability.cells.CellAggregator`.
    enable_degraded_tier:
        Build the common-neighbor degraded tier from each served
        artifact's graph (DESIGN.md §16.5).  It answers while the reload
        breaker is open or after :meth:`engage_degraded`; an artifact
        published without a graph has no degraded tier.

    Examples
    --------
    >>> import tempfile
    >>> import numpy as np
    >>> from repro.models.persistence import FrozenPredictor
    >>> from repro.serving.artifacts import ArtifactStore
    >>> store = ArtifactStore(tempfile.mkdtemp())
    >>> _ = store.publish(FrozenPredictor(np.arange(9.0).reshape(3, 3)))
    >>> service = LinkPredictionService(store)
    >>> service.top_k(0, k=1)
    [(2, 2.0)]
    """

    def __init__(
        self,
        store: Union[ArtifactStore, str],
        cache_size: int = 1024,
        tracer: Optional[Tracer] = None,
        version: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        load_retry: Optional[RetryPolicy] = None,
        reload_breaker: Optional[CircuitBreaker] = None,
        cells: Optional[CellBank] = None,
        enable_degraded_tier: bool = False,
    ):
        self.store = (
            store if isinstance(store, ArtifactStore) else ArtifactStore(store)
        )
        self.registry = registry if registry is not None else MetricsRegistry()
        self.cells = cells if cells is not None else CellBank(self.registry)
        self.tracer = (
            tracer
            if tracer is not None
            else Tracer(
                self.registry,
                default_rate=DEFAULT_SAMPLE_RATE,
                cells=self.cells,
            )
        )
        if self.tracer.registry is None and self.tracer.enabled:
            self.tracer.registry = self.registry
        self.cache = RankingCache(
            cache_size, registry=self.registry, cells=self.cells
        )
        # Pre-bound hot-path counter handles: one attribute read + one
        # ``.inc()`` per request instead of dict lookups in ``count``.
        self._c_requests = self.tracer.hot_counter("serve.requests")
        self._c_topk = self.tracer.hot_counter("serve.topk_requests")
        self._c_score = self.tracer.hot_counter("serve.score_requests")
        self._c_hit = self.tracer.hot_counter("serve.cache_hit")
        self._c_miss = self.tracer.hot_counter("serve.cache_miss")
        self._lock = threading.RLock()
        self._artifact = None
        self._source = None
        # Monotonic clock for all duration math: NTP/wall-clock jumps must
        # never corrupt uptime or latency numbers.
        self._started_at = time.monotonic()
        self._last_reload_error: Optional[str] = None
        self._m_reload_success = self.registry.counter(
            "serving.reload.success", help="Successful hot-swap reloads."
        )
        self._m_reload_failure = self.registry.counter(
            "serving.reload.failure",
            help="Reloads rejected by integrity validation.",
        )
        self._m_reload_noop = self.registry.counter(
            "serving.reload.noop",
            help="Reload calls that found no newer version.",
        )
        self._m_uptime = self.registry.gauge(
            "serving.uptime_seconds", help="Seconds since service start."
        )
        self._m_version = self.registry.gauge(
            "serving.artifact_version", help="Artifact version being served."
        )
        self._load_retry = (
            load_retry if load_retry is not None else DEFAULT_LOAD_RETRY
        )
        # Degraded tier (DESIGN.md §16.5): a common-neighbor scorer built
        # from the served artifact's graph, answering while the reload
        # breaker is open or a caller (the streaming pipeline) engaged it.
        self._enable_degraded = bool(enable_degraded_tier)
        self._fallback: Optional[CommonNeighborScorer] = None
        self._degraded_reason: Optional[str] = None
        self._m_degraded = self.registry.gauge(
            "serving.degraded_mode",
            help="1 while answers come from the degraded common-neighbor tier.",
        )
        self._m_degraded_requests = self.registry.counter(
            "serving.degraded.requests",
            help="Requests answered by the degraded tier.",
        )
        # The breaker only guards *reloads*: once it trips, reload calls
        # short-circuit and the already-installed artifact keeps serving
        # (stale-serve) until the recovery probe finds a healthy store.
        self._reload_breaker = reload_breaker or CircuitBreaker(
            "reload",
            failure_threshold=3,
            recovery_timeout=5.0,
            registry=self.registry,
        )
        self._install(self._load(version))

    def _load(self, version: Optional[int]):
        """One retried, metric-counted artifact read from the store."""
        return call_with_retry(
            lambda: self.store.load(version),
            self._load_retry,
            name="artifact.load",
            registry=self.registry,
        )

    # -- artifact state -------------------------------------------------
    def _install(self, artifact) -> None:
        """Swap in a validated artifact and the sources built from it."""
        source = artifact.candidates(self.tracer, self.registry)
        # The degraded tier comes only from this artifact's graph.
        fallback = None
        if self._enable_degraded and artifact.adjacency is not None:
            fallback = CommonNeighborScorer(artifact.adjacency)
        with self._lock:
            self._artifact = artifact
            self._source = source
            self._fallback = fallback
        if fallback is None:
            self._m_degraded.set(0.0)  # no tier: queries never refresh it
        self._m_version.set(artifact.version)

    @property
    def version(self) -> int:
        """The artifact version currently being served."""
        return self._artifact.version

    @property
    def n_users(self) -> int:
        """Number of users covered by the current artifact."""
        return self._artifact.n_users

    @property
    def artifact(self):
        """The currently-served artifact (manifest, adjacency, model)."""
        return self._artifact

    def reload(self) -> bool:
        """Hot-swap to the store's newest version; ``True`` if swapped.

        A no-op when the served version is already the newest.  When the
        newest version fails validation (checksum mismatch, unreadable
        archive) even after the retry policy, the previous artifact keeps
        serving, the failure is counted (``serve.reload_failed``), recorded
        in ``stats()`` and reported to the reload circuit breaker, and
        ``False`` is returned.  Once the breaker trips open, reload calls
        short-circuit entirely (``serve.reload_shortcircuit``) — the stale
        artifact keeps answering queries — until the breaker's recovery
        probe lets an attempt through again.  A fault armed at the
        ``serving.reload`` chaos site exercises exactly this degradation
        path.
        """
        with self.tracer.span("serve.reload"):
            if not self._reload_breaker.allow():
                self.tracer.count("serve.reload_shortcircuit")
                self._last_reload_error = (
                    "reload circuit breaker is open; serving stale version "
                    f"{self.version}"
                )
                return False
            try:
                fault_point("serving.reload")
                latest = self.store.resolve_latest()
                if latest == self.version:
                    self.tracer.count("serve.reload_noop")
                    self._m_reload_noop.inc()
                    self._reload_breaker.record_success()
                    return False
                artifact = self._load(latest)
            except (SerializationError, RetryExhaustedError) as exc:
                self._reload_breaker.record_failure()
                self.tracer.count("serve.reload_failed")
                self._m_reload_failure.inc()
                self._last_reload_error = str(exc)
                _log.warning(
                    "artifact reload failed; keeping served version",
                    served_version=self.version,
                    error=str(exc),
                )
                return False
            previous = self.version
            self._install(artifact)
            self.cache.invalidate()
            self._last_reload_error = None
            self._reload_breaker.record_success()
            self.tracer.count("serve.reloads")
            self._m_reload_success.inc()
            _log.info(
                "artifact hot-swapped",
                previous_version=previous,
                version=artifact.version,
                n_users=artifact.n_users,
            )
            return True

    # -- degraded tier --------------------------------------------------
    def engage_degraded(self, reason: str = "engaged") -> bool:
        """Explicitly switch answers to the degraded common-neighbor tier.

        Called by the streaming pipeline when its refit breaker opens.
        Returns ``False`` (and stays on the model) when the tier is
        disabled or the served artifact has no graph to build it from.
        """
        if self._fallback is None:
            return False
        self._degraded_reason = str(reason)
        self._answering()
        _log.warning("degraded tier engaged", reason=reason)
        return True

    def disengage_degraded(self) -> None:
        """Clear an explicit engagement (breaker-driven entry may remain)."""
        self._degraded_reason = None
        self._answering()

    def _answering(self, n: int = 0):
        """The source for the next ``n`` answers: degraded tier or model.

        The degraded tier answers while it exists (enabled, and the
        served artifact has a graph) and is either explicitly engaged or
        forced by an **open** reload breaker (the store is misbehaving,
        so the installed model's staleness is unbounded).  Also refreshes
        the ``serving.degraded_mode`` gauge, while the tier exists, so
        scrapes see transitions without waiting for a query.
        """
        fallback = self._fallback
        if fallback is None:
            return self._source
        if self._degraded_reason is None and (
            self._reload_breaker.state != OPEN
        ):
            self._m_degraded.set(0.0)
            return self._source
        self._m_degraded.set(1.0)
        self._m_degraded_requests.inc(n)
        return fallback

    @property
    def degraded_active(self) -> bool:
        """Public read of the degraded-tier state (refreshes the gauge)."""
        return self._answering() is self._fallback

    # -- readiness ------------------------------------------------------
    @property
    def reload_breaker(self) -> CircuitBreaker:
        """The circuit breaker guarding artifact reloads."""
        return self._reload_breaker

    def ready(self) -> bool:
        """Whether the service should receive traffic (``/readyz``).

        Liveness (``/healthz``) stays true as long as the process can
        answer at all; readiness additionally requires an installed
        artifact and a reload breaker that is not open — an open breaker
        means the store is misbehaving and this replica is serving stale
        data, so orchestrators should prefer healthier replicas.
        """
        return self._artifact is not None and (
            self._reload_breaker.state != OPEN
        )

    # -- queries --------------------------------------------------------
    def check_user(self, user: int) -> int:
        """``user`` as an int; :class:`UnknownNodeError` when out of range."""
        user = int(user)
        if not 0 <= user < self.n_users:
            raise UnknownNodeError(
                f"user index {user} out of range (0..{self.n_users - 1})"
            )
        return user

    def score(self, u: int, v: int) -> float:
        """The confidence for ``(u, v)`` from the answering source.

        O(1) for dense artifacts, O(k) for factored ones, a max over
        co-modeling shards for sharded ones; never densifies.
        """
        with self.tracer.span("serve.score"):
            self._c_requests.inc()
            self._c_score.inc()
            u, v = self.check_user(u), self.check_user(v)
            return self._answering(1).score(u, v)

    def is_known_link(self, u: int, v: int) -> bool:
        """Whether ``(u, v)`` is already connected in the published graph.

        ``False`` when the artifact was published without a graph.  The
        published CSR graph has sorted row indices, so this is a binary
        search of ``u``'s row (scipy's scalar indexing costs ~100x more).
        """
        u, v = self.check_user(u), self.check_user(v)
        adjacency = self._artifact.adjacency
        if adjacency is None:
            return False
        start, end = adjacency.indptr[u], adjacency.indptr[u + 1]
        at = start + np.searchsorted(adjacency.indices[start:end], v)
        return bool(
            at < end and adjacency.indices[at] == v and adjacency.data[at] > 0
        )

    def top_k(self, user: int, k: int = 10) -> Ranking:
        """The ``k`` best candidate links for ``user``, best first.

        Self-loops and already-known links never appear; users connected to
        everyone get an empty list.  Complete answers are cached per
        ``(version, user, k)``; an incomplete one (a shard lost, or the
        degraded tier answering) is served but never cached.
        """
        with self.tracer.span("serve.top_k"):
            self._c_requests.inc()
            self._c_topk.inc()
            user = self.check_user(user)
            k = check_integer(k, "k", minimum=1)
            key = (self.version, user, k)
            source = self._answering(1)
            if source.cacheable:
                cached = self.cache.get(key)
                if cached is not None:
                    self._c_hit.inc()
                    return cached
                self._c_miss.inc()
            with self._lock:
                rankings, complete = source.rank([user], [k])
            if complete:
                self.cache.put(key, rankings[0])
            return rankings[0]

    def batch_top_k(
        self, users: Sequence[int], k: int = 10
    ) -> List[Ranking]:
        """Top-``k`` answers for many users: :meth:`batch_top_k_mixed`."""
        return self.batch_top_k_mixed(users, [k] * len(users))

    def batch_top_k_mixed(
        self, users: Sequence[int], ks: Sequence[int]
    ) -> List[Ranking]:
        """Per-request ``k`` values answered in one vectorized pass.

        The heavy work — one source ``rank`` call over every distinct
        uncached ``(user, k)`` request — is shared by the batch; each
        answer is trimmed to its own request's ``k``.  This is what lets
        the micro-batcher coalesce mixed-``k`` traffic into a single
        scoring pass without building oversized answers.
        """
        with self.tracer.span("serve.batch_top_k"):
            if len(users) != len(ks):
                raise ConfigurationError(
                    f"{len(users)} users but {len(ks)} k values"
                )
            ks = [check_integer(k, "k", minimum=1) for k in ks]
            users = [self.check_user(u) for u in users]
            self._c_requests.inc(len(users))
            self._c_topk.inc(len(users))
            version = self.version
            source = self._answering(len(users))
            if not source.cacheable:
                return source.rank(users, ks)[0]
            answers: Dict[Tuple[int, int], Ranking] = {}
            missing: List[Tuple[int, int]] = []
            for user, k in zip(users, ks):
                pair = (user, k)
                cached = self.cache.get((version, user, k))
                if cached is not None:
                    self._c_hit.inc()
                    answers[pair] = cached
                elif pair not in answers:
                    self._c_miss.inc()
                    answers[pair] = None
                    missing.append(pair)
            if missing:
                with self._lock:
                    rankings, complete = source.rank(
                        [user for user, _ in missing],
                        [k for _, k in missing],
                    )
                for pair, ranking in zip(missing, rankings):
                    answers[pair] = ranking
                    if complete:
                        self.cache.put((version, pair[0], pair[1]), ranking)
            return [answers[(user, k)] for user, k in zip(users, ks)]

    # -- introspection --------------------------------------------------
    @property
    def uptime_seconds(self) -> float:
        """Seconds since construction, immune to wall-clock jumps."""
        return time.monotonic() - self._started_at

    def observe_uptime(self) -> float:
        """Refresh the uptime gauge (called before every scrape)."""
        uptime = self.uptime_seconds
        self._m_uptime.set(uptime)
        return uptime

    def metrics_text(self) -> str:
        """The registry rendered as Prometheus text (uptime refreshed).

        Hot-tier cells are drained first, so a scrape always sees the
        merged striped totals even when no background aggregator runs.
        """
        self.observe_uptime()
        self.cells.drain()
        self.tracer.drain()
        return self.registry.render()

    def stats(self) -> Dict:
        """A JSON-compatible snapshot of the service's state and counters.

        The served candidate source adds its own fields (a sharded
        artifact reports ``n_shards``, ``missing_shards`` and
        ``shard_health``).
        """
        manifest = self._artifact.manifest
        return {
            "version": self.version,
            "model": manifest.get("name"),
            "n_users": self.n_users,
            "store": self.store.root,
            "uptime_seconds": self.observe_uptime(),
            "cache": self.cache.stats(),
            "counters": dict(self.tracer.counters),
            "last_reload_error": self._last_reload_error,
            "ready": self.ready(),
            "reload_breaker": self._reload_breaker.state,
            "degraded": self.degraded_active,
            "degraded_reason": self._degraded_reason,
            **self._source.stats(),
        }
