"""The in-process link-prediction service: score, top-k, hot-swap reload.

:class:`LinkPredictionService` is the layer every front-end (HTTP handler,
micro-batcher, CLI) talks to.  It owns

* the current :class:`~repro.serving.artifacts.LoadedArtifact` (predictor +
  known-link adjacency) pulled from an
  :class:`~repro.serving.artifacts.ArtifactStore`,
* a pre-masked *candidate matrix* — scores with ``-inf`` written over the
  diagonal and every already-known link, so ranking is a single vectorized
  ``argpartition`` per row,
* a :class:`~repro.serving.cache.RankingCache` keyed by
  ``(version, user, k)``, and
* a :class:`~repro.observability.Tracer` through which every request path
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
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from repro.exceptions import (
    ConfigurationError,
    RetryExhaustedError,
    SerializationError,
    UnknownNodeError,
)
from repro.observability.cells import CellBank
from repro.observability.logging import get_logger
from repro.observability.metrics import MetricsRegistry
from repro.observability.sampling import SamplingTracer
from repro.observability.tracer import Tracer
from repro.reliability.breaker import OPEN, CircuitBreaker
from repro.reliability.faults import fault_point
from repro.reliability.retry import RetryPolicy, call_with_retry
from repro.serving.artifacts import ArtifactStore, LoadedArtifact
from repro.serving.cache import RankingCache
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

Ranking = List[Tuple[int, float]]
"""A top-k answer: ``(candidate index, score)`` pairs, best first."""


class LinkPredictionService:
    """Serve link-prediction queries from the latest store artifact.

    Parameters
    ----------
    store:
        An :class:`~repro.serving.artifacts.ArtifactStore` or the path of
        one; the latest version is loaded at construction.
    cache_size:
        Capacity of the per-user ranking cache.
    tracer:
        Telemetry sink; a fresh
        :class:`~repro.observability.sampling.SamplingTracer` (striped
        counters, head-sampled spans) is created when omitted so
        ``stats()`` always has counters to report while the hot path
        stays lock-free.  Pass a plain :class:`Tracer` to capture every
        span unconditionally.
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
    cells:
        Optional shared :class:`~repro.observability.cells.CellBank` for
        the hot-tier striped metrics; a private bank over ``registry``
        is created when omitted.  Pass one explicitly to share cells
        between the service, its tracer and a
        :class:`~repro.observability.cells.CellAggregator`.

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
        self.store = store if isinstance(store, ArtifactStore) else ArtifactStore(store)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.cells = cells if cells is not None else CellBank(self.registry)
        self.tracer = (
            tracer
            if tracer is not None
            else SamplingTracer(self.registry, cells=self.cells)
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
        self._artifact: LoadedArtifact = None
        self._candidates: np.ndarray = None
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
        # from the published adjacency, served while the reload breaker is
        # open or a caller (the streaming pipeline) engaged it explicitly.
        self._enable_degraded = bool(enable_degraded_tier)
        self._degraded_scorer = None
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

    def _load(self, version: Optional[int]) -> LoadedArtifact:
        """One retried, metric-counted artifact read from the store."""
        return call_with_retry(
            lambda: self.store.load(version),
            self._load_retry,
            name="artifact.load",
            registry=self.registry,
        )

    # -- artifact state -------------------------------------------------
    def _install(self, artifact: LoadedArtifact) -> None:
        """Swap in a validated artifact and rebuild the candidate source.

        Dense artifacts pre-mask the full score matrix as before.
        Factored artifacts install a :class:`_FactoredCandidates` view
        instead: rows are computed on demand from the O(nk) factors (one
        ``u_i Vᵀ`` matvec each), so install cost and resident memory stay
        O(nk) at any user count.
        """
        predictor = artifact.predictor
        if getattr(predictor, "factored", False):
            candidates = _FactoredCandidates(
                predictor.factored_estimate, artifact.adjacency
            )
        else:
            scores = predictor.score_matrix
            candidates = np.array(scores, dtype=float)
            adjacency = artifact.adjacency
            if adjacency is not None:
                if sparse.issparse(adjacency):
                    # Sparse published graphs (the streaming pipeline's
                    # shape) mask via coordinates — no dense expansion.
                    coo = adjacency.tocoo()
                    known = coo.data > 0
                    candidates[coo.row[known], coo.col[known]] = -np.inf
                else:
                    candidates[adjacency > 0] = -np.inf
            np.fill_diagonal(candidates, -np.inf)
        scorer = None
        if self._enable_degraded and artifact.adjacency is not None:
            from repro.serving.degraded import CommonNeighborScorer

            scorer = CommonNeighborScorer(artifact.adjacency)
        with self._lock:
            self._artifact = artifact
            self._candidates = candidates
            if scorer is not None:
                self._degraded_scorer = scorer
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
    def artifact(self) -> LoadedArtifact:
        """The currently-served artifact (predictor, manifest, adjacency)."""
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
        disabled or no published adjacency exists to build it from.
        """
        if not self._enable_degraded or self._degraded_scorer is None:
            return False
        self._degraded_reason = str(reason)
        self._degraded()
        _log.warning("degraded tier engaged", reason=reason)
        return True

    def disengage_degraded(self) -> None:
        """Clear an explicit engagement (breaker-driven entry may remain)."""
        self._degraded_reason = None
        self._degraded()

    def _degraded(self) -> bool:
        """Whether this request should be answered by the degraded tier.

        True while the tier is enabled, buildable, and either explicitly
        engaged or forced by an **open** reload breaker (the store is
        misbehaving, so the installed model's staleness is unbounded).
        Also refreshes the ``serving.degraded_mode`` gauge so scrapes see
        transitions without waiting for a query.
        """
        active = (
            self._enable_degraded
            and self._degraded_scorer is not None
            and (
                self._degraded_reason is not None
                or self._reload_breaker.state == OPEN
            )
        )
        self._m_degraded.set(1.0 if active else 0.0)
        return active

    @property
    def degraded_active(self) -> bool:
        """Public read of the degraded-tier state (refreshes the gauge)."""
        return self._degraded()

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
        """The raw model confidence for the pair ``(u, v)``.

        Routed through the predictor's pair-scoring API: an O(1) matrix
        read for dense artifacts, an O(k) factor dot for factored ones —
        never a dense materialization.
        """
        with self.tracer.span("serve.score"):
            self._c_requests.inc()
            self._c_score.inc()
            u, v = self.check_user(u), self.check_user(v)
            if self._degraded():
                self._m_degraded_requests.inc()
                return self._degraded_scorer.score(u, v)
            return float(self._artifact.predictor.score_pairs([(u, v)])[0])

    def is_known_link(self, u: int, v: int) -> bool:
        """Whether ``(u, v)`` is already connected in the published graph.

        ``False`` when the artifact was published without a graph.  Works
        for both dense and scipy-sparse published adjacencies.
        """
        u, v = self.check_user(u), self.check_user(v)
        adjacency = self._artifact.adjacency
        return bool(adjacency is not None and adjacency[u, v] > 0)

    def top_k(self, user: int, k: int = 10) -> Ranking:
        """The ``k`` best candidate links for ``user``, best first.

        Self-loops and already-known links never appear; users connected to
        everyone get an empty list.  Answers are cached per
        ``(version, user, k)``.
        """
        with self.tracer.span("serve.top_k"):
            self._c_requests.inc()
            self._c_topk.inc()
            user = self.check_user(user)
            k = check_integer(k, "k", minimum=1)
            if self._degraded():
                # Degraded answers are not model answers: never read from
                # or write to the version-keyed ranking cache.
                self._m_degraded_requests.inc()
                return self._degraded_scorer.top_k(user, k)
            key = (self.version, user, k)
            cached = self.cache.get(key)
            if cached is not None:
                self._c_hit.inc()
                return cached
            self._c_miss.inc()
            with self._lock:
                ranking = _rank_row(self._candidates[user], k)
            self.cache.put(key, ranking)
            return ranking

    def batch_top_k(
        self, users: Sequence[int], k: int = 10
    ) -> List[Ranking]:
        """Top-``k`` answers for many users in one vectorized scoring pass.

        Cached users are answered from the cache; the remaining rows are
        ranked together with a single ``argpartition`` call, which is what
        the micro-batcher relies on for throughput.
        """
        return self.batch_top_k_mixed(users, [k] * len(users))

    def batch_top_k_mixed(
        self, users: Sequence[int], ks: Sequence[int]
    ) -> List[Ranking]:
        """Per-request ``k`` values answered in one vectorized pass.

        The heavy numpy work — row extraction, one ``argpartition`` and
        one stable ``argsort`` at the batch's largest ``k`` — is shared
        by every request; only the final per-row list materialization is
        trimmed to each request's own ``k``.  This is what lets the
        micro-batcher coalesce mixed-``k`` traffic into a single scoring
        pass without building oversized answers.
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
            if self._degraded():
                self._m_degraded_requests.inc(len(users))
                return self._degraded_scorer.batch_top_k_mixed(users, ks)
            version = self.version
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
                    rows = self._candidates[[user for user, _ in missing]]
                    rankings = _rank_rows(
                        rows,
                        max(k for _, k in missing),
                        ks=[k for _, k in missing],
                    )
                for pair, ranking in zip(missing, rankings):
                    answers[pair] = ranking
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
        tracer_drain = getattr(self.tracer, "drain", None)
        if tracer_drain is not None:
            tracer_drain()
        return self.registry.render()

    def stats(self) -> Dict:
        """A JSON-compatible snapshot of the service's state and counters."""
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
            "degraded": self._degraded(),
            "degraded_reason": self._degraded_reason,
        }


class _FactoredCandidates:
    """On-demand masked candidate rows backed by a factored estimate.

    The factored analogue of the dense pre-masked candidate matrix:
    ``self[user]`` (or ``self[list_of_users]``) computes the requested
    score rows from the O(nk) factors — ``(u_i ∘ σ) Vᵀ`` plus the CSR
    residual row, clipped at zero to match the factored scoring
    convention — and writes ``-inf`` over the diagonal entry and every
    already-known link before ranking sees them.  Nothing n×n is ever
    resident; each query touches O(n) per requested row.
    """

    def __init__(self, estimate, adjacency=None):
        from scipy import sparse

        self.estimate = estimate
        if adjacency is None:
            self._known = None
        else:
            known = sparse.csr_matrix(adjacency)
            # Keep only positive entries so explicit zeros never mask.
            known = (known > 0).tocsr()
            self._known = known

    def _rows(self, users: np.ndarray) -> np.ndarray:
        rows = self.estimate.rows(users)
        np.maximum(rows, 0.0, out=rows)
        for offset, user in enumerate(users):
            if self._known is not None:
                start, end = (
                    self._known.indptr[user],
                    self._known.indptr[user + 1],
                )
                rows[offset, self._known.indices[start:end]] = -np.inf
            rows[offset, user] = -np.inf
        return rows

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return self._rows(np.array([int(key)]))[0]
        return self._rows(np.asarray(key, dtype=int))

    def __repr__(self) -> str:
        return f"_FactoredCandidates(n={self.estimate.n_users})"


def _rank_row(row: np.ndarray, k: int) -> Ranking:
    """Rank one candidate row: finite entries only, best first."""
    finite = np.flatnonzero(np.isfinite(row))
    if finite.size == 0:
        return []
    kth = min(k, finite.size)
    top = finite[np.argpartition(-row[finite], kth - 1)[:kth]]
    top = top[np.argsort(-row[top], kind="stable")]
    return [(int(j), float(row[j])) for j in top]


def _rank_rows(
    rows: np.ndarray, k: int, ks: Optional[Sequence[int]] = None
) -> List[Ranking]:
    """Rank a stack of candidate rows in two vectorized passes.

    One ``argpartition`` narrows every row to its top ``k`` columns, one
    ``axis=1`` stable argsort orders all of them together; the only
    per-row work left is materializing the output lists.  -inf (masked)
    entries sort last and are dropped per row.  With ``ks`` given, row
    ``i``'s output list is trimmed to ``ks[i]`` entries (each at most
    ``k``) — the shared numpy passes still run once at ``k``, but no row
    materializes more tuples than its own request asked for.
    """
    n = rows.shape[1]
    kth = min(k, n)
    part = np.argpartition(-rows, kth - 1, axis=1)[:, :kth]
    values = np.take_along_axis(rows, part, axis=1)
    order = np.argsort(-values, axis=1, kind="stable")
    cols = np.take_along_axis(part, order, axis=1)
    values = np.take_along_axis(values, order, axis=1)
    finite = np.isfinite(values)
    limits = repeat(kth) if ks is None else ks
    rankings: List[Ranking] = []
    for row_cols, row_values, row_finite, limit in zip(
        cols, values, finite, limits
    ):
        row_cols = row_cols[row_finite][:limit]
        row_values = row_values[row_finite][:limit]
        rankings.append(
            [(int(j), float(v)) for j, v in zip(row_cols, row_values)]
        )
    return rankings
