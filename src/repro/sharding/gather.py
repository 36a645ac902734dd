"""Scatter-gather candidates over a sharded artifact.

:class:`ScatterGather` is the candidate source
(:mod:`repro.serving.candidates`) a
:class:`~repro.sharding.artifacts.LoadedShardedArtifact` builds for
:class:`~repro.serving.service.LinkPredictionService`, which serves it
with the same cache, reload, breaker and batching as any other artifact.
A query for user ``u`` fans out to every shard that models ``u`` (its
core shard plus any shard holding it as an anchor), each shard scores
its own candidate list from O(m·k) factors, and the answers are merged
on the stitched common scale with a **deterministic tie-break** (higher
score first, then smaller candidate id — never partition order).

Degradation is per shard: the store's load skips a corrupt shard file so
only that shard's candidates drop, and a per-shard circuit breaker
isolates scoring failures the same way — surviving shards keep
answering.  An answer missing a shard is not *complete*: it is served
but never cached, the loss is counted (``serve.degraded``) and
``stats()`` reports each shard's health.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.observability.logging import current_request_id, get_logger
from repro.reliability.breaker import CircuitBreaker
from repro.serving.candidates import Ranking

_log = get_logger("repro.sharding.gather")

SHARD_FAILURE_THRESHOLD = 3
"""Consecutive scoring failures that trip one shard's breaker; while it
is open that shard is skipped until the recovery probe closes it."""


class ScatterGather:
    """Rank by scatter-gathering across the shard models of one artifact.

    Parameters
    ----------
    artifact:
        The installed
        :class:`~repro.sharding.artifacts.LoadedShardedArtifact`.
    tracer:
        The service's tracer: per-shard child spans, hot counters and
        the ``sharding.shard_seconds`` histogram record through it.
    registry:
        The service's metrics registry (shard breakers and the
        ``sharding.healthy_shards`` gauge).
    """

    cacheable = True

    def __init__(self, artifact, tracer, registry):
        self.artifact = artifact
        self.tracer = tracer
        self._breakers: Dict[int, CircuitBreaker] = {
            s: CircuitBreaker(
                f"shard-{s:03d}",
                failure_threshold=SHARD_FAILURE_THRESHOLD,
                recovery_timeout=5.0,
                registry=registry,
            )
            for s in artifact.estimates
        }
        # Pre-bound hot cells: one attribute load + float add per hit on
        # the scatter-gather path, no dict lookup and no registry lock.
        self._c_unavailable = tracer.hot_counter("serve.shard_unavailable")
        self._c_shortcircuit = tracer.hot_counter("serve.shard_shortcircuit")
        self._c_shard_errors = tracer.hot_counter("serve.shard_errors")
        self._c_degraded = tracer.hot_counter("serve.degraded")
        self._h_shard_seconds = tracer.hot_histogram(
            "serve.shard_seconds", registry_name="sharding.shard_seconds"
        )
        registry.gauge(
            "sharding.healthy_shards",
            help="Shards currently answering queries.",
        ).set(len(artifact.estimates))
        if artifact.degraded:
            tracer.count("serve.shards_dropped", len(artifact.missing_shards))
            _log.warning(
                "sharded artifact loaded degraded",
                version=artifact.version,
                missing_shards=artifact.missing_shards,
            )

    def _shard_rows(
        self, shard: int, users: np.ndarray
    ) -> Optional[np.ndarray]:
        """Stitched non-negative score rows of ``users`` within ``shard``.

        ``None`` when the shard is unavailable — dropped at load time or
        breaker-open — or when scoring fails (which also records the
        failure on the shard's breaker).  Row columns are the shard's
        local candidate order, ``plan.members[shard]``.
        """
        artifact = self.artifact
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
        contributions from its shards — plus a flag telling whether
        every shard contribution arrived (a complete answer).
        """
        plan = self.artifact.plan
        by_shard: Dict[int, List[int]] = {}
        for position, user in enumerate(users):
            for shard in plan.shards_of_user(user):
                by_shard.setdefault(shard, []).append(position)
        merged: List[List[Tuple[np.ndarray, np.ndarray]]] = [
            [] for _ in users
        ]
        complete = True
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
                complete = False
                continue
            candidates = plan.members[shard]
            for row, position in zip(rows, positions):
                merged[position].append((candidates, row))
        return merged, complete

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
        adjacency = self.artifact.adjacency
        if adjacency is not None:
            start, end = adjacency.indptr[user], adjacency.indptr[user + 1]
            known = adjacency.indices[start:end]
            keep &= ~np.isin(candidates, known)
        candidates, scores = candidates[keep], scores[keep]
        if candidates.size == 0:
            return []
        order = np.lexsort((candidates, -scores))[:k]
        return [(int(candidates[i]), float(scores[i])) for i in order]

    def rank(
        self, users: Sequence[int], ks: Sequence[int]
    ) -> Tuple[List[Ranking], bool]:
        """Merged rankings with one ``rows()`` pass per shard.

        Known links are excluded on the *global* published graph after
        the merge, so links whose endpoints live in different shards
        never appear.  Incomplete when any shard contribution was lost.
        """
        merged, complete = self._gather(users)
        rankings = [
            self._rank_merged(user, contributions, k)
            for user, contributions, k in zip(users, merged, ks)
        ]
        if not complete:
            self._c_degraded.inc(len(users))
        return rankings, complete

    def score(self, u: int, v: int) -> float:
        """Stitched confidence for ``(u, v)``: max over co-modeling shards."""
        if u == v:
            return 0.0
        artifact = self.artifact
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

    def shard_health(self) -> Dict[int, str]:
        """Shard id → ``"missing"`` or its breaker state."""
        return {
            s: self._breakers[s].state if s in self._breakers else "missing"
            for s in range(self.artifact.n_shards)
        }

    def stats(self) -> Dict:
        """Shard count, shards dropped at load and per-shard health."""
        return {
            "n_shards": self.artifact.n_shards,
            "missing_shards": list(self.artifact.missing_shards),
            "shard_health": {
                str(s): state for s, state in self.shard_health().items()
            },
        }
