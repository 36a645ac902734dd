"""Scatter-gather serving over a sharded artifact.

:class:`ShardedLinkPredictionService` exposes the same query surface as
:class:`~repro.serving.service.LinkPredictionService` — ``top_k``,
``batch_top_k``, ``score``, ``is_known_link``, ``reload``, ``stats``,
``metrics_text``, ``ready`` — so the HTTP front-end, the micro-batcher
and the deadline/load-shed middleware work unchanged on top of it.  The
difference is inside: a query for user ``u`` fans out to every shard
that models ``u`` (its core shard plus any shard holding it as an
anchor), each shard scores its own candidate list from O(m·k) factors,
and the answers are merged on the stitched common scale with a
**deterministic tie-break** (higher score first, then smaller candidate
id — never partition order).

Degradation is per shard: artifacts load with ``strict=False`` so a
corrupt shard file drops only that shard's candidates, and a per-shard
circuit breaker isolates scoring failures the same way — surviving
shards keep answering, the loss is counted (``serve.degraded``) and
reported in ``stats()``.
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
from repro.observability.logging import current_request_id, get_logger
from repro.observability.metrics import MetricsRegistry
from repro.observability.sampling import SamplingTracer
from repro.observability.tracer import Tracer
from repro.reliability.breaker import OPEN, CircuitBreaker
from repro.reliability.retry import call_with_retry
from repro.serving.cache import RankingCache
from repro.serving.service import DEFAULT_LOAD_RETRY, Ranking
from repro.sharding.artifacts import (
    LoadedShardedArtifact,
    ShardedArtifactStore,
)
from repro.utils.validation import check_integer

_log = get_logger("repro.sharding.service")


class ShardedLinkPredictionService:
    """Serve top-k queries by scatter-gathering across shard models.

    Parameters
    ----------
    store:
        A :class:`~repro.sharding.artifacts.ShardedArtifactStore` or its
        path; the latest version loads (degraded if needed) at
        construction.
    cache_size:
        Capacity of the merged-ranking cache (keyed by version, user, k).
    tracer, registry:
        Telemetry sinks, created live when omitted — same contract as
        the unsharded service (the default tracer is a
        :class:`~repro.observability.sampling.SamplingTracer` recording
        onto the striped cell bank).
    cells:
        Optional :class:`~repro.observability.cells.CellBank` shared
        with other components; created when omitted.  All hot-path
        counters and the per-shard timing histogram record into this
        bank and reach the registry only at drain time
        (``metrics_text``/aggregator).
    version:
        Pin an explicit artifact version instead of the latest.
    shard_failure_threshold:
        Consecutive scoring failures that trip one shard's breaker;
        while open, that shard is skipped (degraded answers) until the
        breaker's recovery probe closes it again.
    """

    def __init__(
        self,
        store: Union[ShardedArtifactStore, str],
        cache_size: int = 1024,
        tracer: Optional[Tracer] = None,
        version: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        load_retry=None,
        reload_breaker: Optional[CircuitBreaker] = None,
        shard_failure_threshold: int = 3,
        cells: Optional[CellBank] = None,
    ):
        self.store = (
            store
            if isinstance(store, ShardedArtifactStore)
            else ShardedArtifactStore(store)
        )
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
        self._lock = threading.RLock()
        self._artifact: Optional[LoadedShardedArtifact] = None
        self._breakers: Dict[int, CircuitBreaker] = {}
        self._shard_failure_threshold = check_integer(
            shard_failure_threshold, "shard_failure_threshold", minimum=1
        )
        self._started_at = time.monotonic()
        self._last_reload_error: Optional[str] = None
        self._m_version = self.registry.gauge(
            "sharding.artifact_version",
            help="Sharded artifact version being served.",
        )
        self._m_healthy_shards = self.registry.gauge(
            "sharding.healthy_shards",
            help="Shards currently answering queries.",
        )
        self._m_uptime = self.registry.gauge(
            "serving.uptime_seconds", help="Seconds since service start."
        )
        # Pre-bound hot cells: one attribute load + float add per hit on
        # the scatter-gather path, no dict lookup and no registry lock.
        self._c_requests = self.tracer.hot_counter("serve.requests")
        self._c_topk = self.tracer.hot_counter("serve.topk_requests")
        self._c_score = self.tracer.hot_counter("serve.score_requests")
        self._c_hit = self.tracer.hot_counter("serve.cache_hit")
        self._c_miss = self.tracer.hot_counter("serve.cache_miss")
        self._c_unavailable = self.tracer.hot_counter(
            "serve.shard_unavailable"
        )
        self._c_shortcircuit = self.tracer.hot_counter(
            "serve.shard_shortcircuit"
        )
        self._c_shard_errors = self.tracer.hot_counter("serve.shard_errors")
        self._c_degraded = self.tracer.hot_counter("serve.degraded")
        self._h_shard_seconds = self.tracer.hot_histogram(
            "serve.shard_seconds", registry_name="sharding.shard_seconds"
        )
        self._load_retry = (
            load_retry if load_retry is not None else DEFAULT_LOAD_RETRY
        )
        self._reload_breaker = reload_breaker or CircuitBreaker(
            "sharded-reload",
            failure_threshold=3,
            recovery_timeout=5.0,
            registry=self.registry,
        )
        self._install(self._load(version))

    # -- artifact state -------------------------------------------------
    def _load(self, version: Optional[int]) -> LoadedShardedArtifact:
        """One retried, degradation-tolerant artifact read."""
        return call_with_retry(
            lambda: self.store.load(version, strict=False),
            self._load_retry,
            name="sharded_artifact.load",
            registry=self.registry,
        )

    def _install(self, artifact: LoadedShardedArtifact) -> None:
        """Swap in an artifact and (re)build the per-shard breakers."""
        breakers = {
            s: CircuitBreaker(
                f"shard-{s:03d}",
                failure_threshold=self._shard_failure_threshold,
                recovery_timeout=5.0,
                registry=self.registry,
            )
            for s in artifact.estimates
        }
        with self._lock:
            self._artifact = artifact
            self._breakers = breakers
        self._m_version.set(artifact.version)
        self._m_healthy_shards.set(len(artifact.estimates))
        if artifact.degraded:
            self.tracer.count(
                "serve.shards_dropped", len(artifact.missing_shards)
            )
            _log.warning(
                "sharded artifact loaded degraded",
                version=artifact.version,
                missing_shards=artifact.missing_shards,
            )

    @property
    def version(self) -> int:
        """The artifact version currently being served."""
        return self._artifact.version

    @property
    def n_users(self) -> int:
        """Users covered by the current plan."""
        return self._artifact.n_users

    @property
    def artifact(self) -> LoadedShardedArtifact:
        """The currently-served sharded artifact."""
        return self._artifact

    @property
    def reload_breaker(self) -> CircuitBreaker:
        """The circuit breaker guarding artifact reloads."""
        return self._reload_breaker

    def reload(self) -> bool:
        """Hot-swap to the store's newest version; ``True`` if swapped.

        Same stale-serve contract as the unsharded service: validation
        failures keep the installed artifact serving and trip the reload
        breaker; a degraded-but-loadable newer version *is* installed
        (answering from surviving shards beats serving stale data).
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
                latest = self.store.resolve_latest()
                if latest == self.version:
                    self.tracer.count("serve.reload_noop")
                    self._reload_breaker.record_success()
                    return False
                artifact = self._load(latest)
            except (SerializationError, RetryExhaustedError) as exc:
                self._reload_breaker.record_failure()
                self.tracer.count("serve.reload_failed")
                self._last_reload_error = str(exc)
                _log.warning(
                    "sharded artifact reload failed; keeping served version",
                    served_version=self.version,
                    error=str(exc),
                )
                return False
            self._install(artifact)
            self.cache.invalidate()
            self._last_reload_error = None
            self._reload_breaker.record_success()
            self.tracer.count("serve.reloads")
            return True

    def ready(self) -> bool:
        """Whether the service should receive traffic (``/readyz``)."""
        return self._artifact is not None and (
            self._reload_breaker.state != OPEN
        )

    # -- scatter-gather core --------------------------------------------
    def check_user(self, user: int) -> int:
        """``user`` as an int; :class:`UnknownNodeError` when out of range."""
        user = int(user)
        if not 0 <= user < self.n_users:
            raise UnknownNodeError(
                f"user index {user} out of range (0..{self.n_users - 1})"
            )
        return user

    def _shard_rows(
        self, shard: int, users: np.ndarray
    ) -> Optional[np.ndarray]:
        """Stitched non-negative score rows of ``users`` within ``shard``.

        ``None`` when the shard is unavailable — dropped at load time or
        breaker-open — or when scoring fails (which also records the
        failure on the shard's breaker).  Row columns are the shard's
        local candidate order, ``plan.members[shard]``.
        """
        artifact = self._artifact
        estimate = artifact.estimates.get(shard)
        if estimate is None:
            self._c_unavailable.inc()
            return None
        breaker = self._breakers[shard]
        if not breaker.allow():
            self._c_shortcircuit.inc()
            return None
        try:
            local = artifact.plan.local_indices(shard, users)
            rows = estimate.rows(local)
            np.maximum(rows, 0.0, out=rows)
            rows *= float(artifact.scales[shard])
        except Exception as exc:
            breaker.record_failure()
            self._c_shard_errors.inc()
            _log.warning(
                "shard scoring failed; degrading to remaining shards",
                shard=shard,
                error=str(exc),
                request_id=current_request_id(),
            )
            return None
        breaker.record_success()
        return rows

    def _gather(
        self, users: Sequence[int]
    ) -> Tuple[List[List[Tuple[np.ndarray, np.ndarray]]], bool]:
        """Per-shard candidate contributions, scattered then regrouped.

        Scatters each user's scoring across every shard that models it,
        batching all users of one shard into a single ``rows()`` call.
        Returns, per user, the list of ``(candidate_ids, scores)``
        contributions from its shards — plus a flag telling whether any
        shard contribution was lost (degraded answer).
        """
        artifact = self._artifact
        plan = artifact.plan
        by_shard: Dict[int, List[int]] = {}
        for position, user in enumerate(users):
            for shard in plan.shards_of_user(user):
                by_shard.setdefault(shard, []).append(position)
        merged: List[List[Tuple[np.ndarray, np.ndarray]]] = [
            [] for _ in users
        ]
        degraded = False
        for shard in sorted(by_shard):
            positions = by_shard[shard]
            user_block = np.array(
                [users[p] for p in positions], dtype=np.int64
            )
            # Per-shard child span: inside a sampled request trace this
            # stitches one `serve.shard[NNN]` node per fan-out leg under
            # the request's span tree; outside a trace it costs one
            # is-recording check.
            start = time.perf_counter()
            with self.tracer.span(f"serve.shard[{shard:03d}]"):
                rows = self._shard_rows(shard, user_block)
            self._h_shard_seconds.observe(time.perf_counter() - start)
            if rows is None:
                degraded = True
                continue
            candidates = plan.members[shard]
            for row, position in zip(rows, positions):
                merged[position].append((candidates, row))
        return merged, degraded

    def _rank_merged(
        self,
        user: int,
        contributions: List[Tuple[np.ndarray, np.ndarray]],
        k: int,
    ) -> Ranking:
        """Deterministically rank one user's merged shard contributions.

        Candidates appearing in several shards keep their maximum
        stitched score.  Excludes the user itself and every known link
        of the published global graph (across shard boundaries), then
        orders by descending score with ascending candidate id breaking
        ties — a total order independent of shard iteration or partition
        internals.
        """
        if not contributions:
            return []
        candidates = np.concatenate([c for c, _ in contributions])
        scores = np.concatenate([s for _, s in contributions])
        if len(contributions) > 1:
            # Merge duplicate candidates by max score: sort by
            # (candidate, -score) and keep each candidate's first row.
            order = np.lexsort((-scores, candidates))
            candidates, scores = candidates[order], scores[order]
            first = np.ones(candidates.size, dtype=bool)
            first[1:] = candidates[1:] != candidates[:-1]
            candidates, scores = candidates[first], scores[first]
        keep = candidates != user
        adjacency = self._artifact.adjacency
        if adjacency is not None:
            start, end = adjacency.indptr[user], adjacency.indptr[user + 1]
            known = adjacency.indices[start:end]
            keep &= ~np.isin(candidates, known)
        candidates, scores = candidates[keep], scores[keep]
        if candidates.size == 0:
            return []
        order = np.lexsort((candidates, -scores))[:k]
        return [(int(candidates[i]), float(scores[i])) for i in order]

    # -- queries --------------------------------------------------------
    def score(self, u: int, v: int) -> float:
        """Stitched confidence for ``(u, v)``: max over co-modeling shards."""
        with self.tracer.span("serve.score"):
            self._c_requests.inc()
            self._c_score.inc()
            u, v = self.check_user(u), self.check_user(v)
            if u == v:
                return 0.0
            artifact = self._artifact
            best = 0.0
            for shard in artifact.plan.shards_of_user(u):
                estimate = artifact.estimates.get(shard)
                if estimate is None:
                    continue
                members = artifact.plan.members[shard]
                position = np.searchsorted(members, v)
                if position >= members.size or members[position] != v:
                    continue
                local_u = artifact.plan.local_indices(shard, u)
                value = float(
                    np.maximum(
                        estimate.entries(local_u, np.array([position])), 0.0
                    )[0]
                ) * float(artifact.scales[shard])
                best = max(best, value)
            return best

    def is_known_link(self, u: int, v: int) -> bool:
        """Whether ``(u, v)`` is connected in the published global graph."""
        u, v = self.check_user(u), self.check_user(v)
        adjacency = self._artifact.adjacency
        return bool(adjacency is not None and adjacency[u, v] > 0)

    def top_k(self, user: int, k: int = 10) -> Ranking:
        """The ``k`` best candidates for ``user`` across all its shards.

        Self-loops and known links never appear (including links whose
        endpoints live in different shards — exclusion runs on the
        *global* published graph after the merge).  Cached per
        ``(version, user, k)``; a degraded answer (shard dropped or
        breaker open) is served but never cached, so the next query
        retries the full scatter.
        """
        with self.tracer.span("serve.top_k"):
            self._c_requests.inc()
            self._c_topk.inc()
            user = self.check_user(user)
            k = check_integer(k, "k", minimum=1)
            key = (self.version, user, k)
            cached = self.cache.get(key)
            if cached is not None:
                self._c_hit.inc()
                return cached
            self._c_miss.inc()
            with self._lock:
                merged, degraded = self._gather([user])
                ranking = self._rank_merged(user, merged[0], k)
            if degraded:
                self._c_degraded.inc()
            else:
                self.cache.put(key, ranking)
            return ranking

    def batch_top_k(
        self, users: Sequence[int], k: int = 10
    ) -> List[Ranking]:
        """Top-``k`` for many users with one ``rows()`` pass per shard."""
        return self.batch_top_k_mixed(users, [k] * len(users))

    def batch_top_k_mixed(
        self, users: Sequence[int], ks: Sequence[int]
    ) -> List[Ranking]:
        """Per-request ``k`` values in one scatter-gather pass.

        The micro-batcher's coalescing contract: all requests share the
        per-shard ``rows()`` scatter, and each merged ranking is trimmed
        to its own request's ``k``.
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
                    merged, degraded = self._gather(
                        [user for user, _ in missing]
                    )
                    for (user, k), contributions in zip(missing, merged):
                        ranking = self._rank_merged(user, contributions, k)
                        answers[(user, k)] = ranking
                        if not degraded:
                            self.cache.put((version, user, k), ranking)
                if degraded:
                    self._c_degraded.inc(len(missing))
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

        Drains the striped cell bank (and the tracer's, when it keeps
        one) first, so scrapes observe every hot-path increment even
        without a background aggregator.
        """
        self.observe_uptime()
        self.cells.drain()
        tracer_drain = getattr(self.tracer, "drain", None)
        if tracer_drain is not None:
            tracer_drain()
        return self.registry.render()

    def shard_health(self) -> Dict[int, str]:
        """Shard id → ``"missing"`` or its breaker state."""
        artifact = self._artifact
        health = {}
        for s in range(artifact.n_shards):
            if s in artifact.estimates:
                health[s] = self._breakers[s].state
            else:
                health[s] = "missing"
        return health

    def stats(self) -> Dict:
        """A JSON-compatible snapshot of service state and counters."""
        artifact = self._artifact
        return {
            "version": self.version,
            "model": artifact.manifest.get("name"),
            "n_users": self.n_users,
            "n_shards": artifact.n_shards,
            "missing_shards": list(artifact.missing_shards),
            "shard_health": {
                str(s): state for s, state in self.shard_health().items()
            },
            "store": self.store.root,
            "uptime_seconds": self.observe_uptime(),
            "cache": self.cache.stats(),
            "counters": dict(self.tracer.counters),
            "last_reload_error": self._last_reload_error,
            "ready": self.ready(),
            "reload_breaker": self._reload_breaker.state,
        }
