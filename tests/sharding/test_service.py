"""Scatter-gather serving: merge determinism, exclusion, degradation.

A sharded artifact is served by the one serving service,
``LinkPredictionService(ArtifactStore(...))`` over a sharded version.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from scipy import sparse

from repro.factored.estimate import FactoredEstimate
from repro.serving.artifacts import ArtifactStore
from repro.serving.batcher import MicroBatcher
from repro.serving.service import LinkPredictionService
from repro.sharding.partition import ShardPlan

N_USERS = 8


class _StubModel:
    """The minimal fitted-model surface ``publish`` consumes."""

    name = "stub-sharded"

    def __init__(self, plan, estimates, scales):
        self.plan = plan
        self.estimates = estimates
        self.scales = np.asarray(scales, dtype=float)


def _plan():
    """Users 0–3 in shard 0, 4–7 in shard 1; 4 and 3 cross-replicated."""
    return ShardPlan(
        shard_of=np.array([0, 0, 0, 0, 1, 1, 1, 1]),
        anchors=[np.array([4]), np.array([3])],
    )


def _flat_estimate(n_members, value=1.0):
    """A rank-1 estimate scoring every pair exactly ``value``."""
    u = np.ones((n_members, 1))
    vt = np.ones((1, n_members))
    return FactoredEstimate(u, np.array([value]), vt)


def _publish(tmp_path, graph=None, values=(1.0, 1.0), scales=(1.0, 1.0)):
    plan = _plan()
    estimates = [
        _flat_estimate(plan.members[s].size, values[s]) for s in range(2)
    ]
    store = ArtifactStore(str(tmp_path / "store"))
    store.publish(_StubModel(plan, estimates, scales), graph=graph)
    return store


class TestDeterministicMerge:
    def test_all_tied_scores_rank_by_ascending_id(self, tmp_path):
        service = LinkPredictionService(_publish(tmp_path))
        ranking = service.top_k(3, k=10)
        # user 3 sees both shards: candidates 0..7 minus itself, all tied
        # at 1.0 → ascending candidate id is the only legal order.
        assert [c for c, _ in ranking] == [0, 1, 2, 4, 5, 6, 7]
        assert all(score == pytest.approx(1.0) for _, score in ranking)

    def test_two_services_agree_exactly(self, tmp_path):
        store = _publish(tmp_path)
        first = LinkPredictionService(store)
        second = LinkPredictionService(store)
        for user in range(N_USERS):
            assert first.top_k(user, k=10) == second.top_k(user, k=10)

    def test_duplicate_candidates_keep_max_stitched_score(self, tmp_path):
        # Shard 1 scores 2.0 while shard 0 scores 1.0; boundary user 3
        # sees candidate 4 from both shards and must keep the larger.
        service = LinkPredictionService(
            _publish(tmp_path, values=(1.0, 2.0))
        )
        scores = dict(service.top_k(3, k=10))
        assert scores[4] == pytest.approx(2.0)
        assert scores[0] == pytest.approx(1.0)

    def test_batch_matches_single_queries(self, tmp_path):
        service = LinkPredictionService(_publish(tmp_path))
        singles = [service.top_k(u, k=5) for u in range(N_USERS)]
        service.cache.invalidate()
        batched = service.batch_top_k(list(range(N_USERS)), k=5)
        assert batched == singles

    def test_mixed_k_trims_per_request(self, tmp_path):
        service = LinkPredictionService(_publish(tmp_path))
        full, trimmed = service.batch_top_k_mixed([3, 3], [10, 2])
        assert trimmed == full[:2]


class TestKnownLinkExclusion:
    def test_cross_shard_links_never_appear(self, tmp_path):
        # Edge (3, 5) spans the shard boundary: user 3's core shard never
        # models user 5, so only the *global* graph can exclude it.
        graph = sparse.csr_matrix(
            ([1.0, 1.0], ([3, 5], [5, 3])), shape=(N_USERS, N_USERS)
        )
        service = LinkPredictionService(_publish(tmp_path, graph))
        candidates = [c for c, _ in service.top_k(3, k=10)]
        assert 5 not in candidates
        assert 3 not in candidates  # self always excluded
        assert service.is_known_link(3, 5)
        assert not service.is_known_link(3, 6)

    def test_self_excluded_without_graph(self, tmp_path):
        service = LinkPredictionService(_publish(tmp_path))
        for user in range(N_USERS):
            assert user not in [c for c, _ in service.top_k(user, k=10)]


class TestDegradation:
    def _corrupt_shard(self, store, shard):
        path = os.path.join(store.path(1), f"shard-{shard:03d}", "factor_u.npy")
        with open(path, "r+b") as handle:
            handle.seek(12)
            handle.write(b"\xde\xad\xbe\xef")

    def test_corrupt_shard_serves_remaining_users(self, tmp_path):
        store = _publish(tmp_path)
        self._corrupt_shard(store, 0)
        service = LinkPredictionService(store)
        assert service.artifact.missing_shards == [0]
        assert service.stats()["shard_health"]["0"] == "missing"
        # Core shard-1 users answer from the surviving shard.
        ranking = service.top_k(5, k=10)
        assert [c for c, _ in ranking] == [3, 4, 6, 7]
        # The boundary user still answers through its anchor replica.
        assert service.top_k(3, k=10)
        # Users modeled only by the dead shard degrade to empty, not error.
        assert service.top_k(0, k=10) == []
        assert service.stats()["missing_shards"] == [0]

    def test_degraded_answers_are_not_cached(self, tmp_path):
        store = _publish(tmp_path)
        self._corrupt_shard(store, 0)
        service = LinkPredictionService(store)
        service.top_k(0, k=10)
        assert service.tracer.counters.get("serve.degraded", 0) >= 1
        before = service.tracer.counters.get("serve.cache_hit", 0)
        service.top_k(0, k=10)
        assert service.tracer.counters.get("serve.cache_hit", 0) == before

    def test_ready_and_stats_survive_degradation(self, tmp_path):
        store = _publish(tmp_path)
        self._corrupt_shard(store, 1)
        service = LinkPredictionService(store)
        assert service.ready()
        stats = service.stats()
        assert stats["n_shards"] == 2
        assert stats["shard_health"]["1"] == "missing"


class TestServiceSurface:
    def test_reload_picks_up_new_version(self, tmp_path):
        store = _publish(tmp_path)
        service = LinkPredictionService(store)
        assert service.version == 1
        assert service.reload() is False  # no newer version
        plan = _plan()
        store.publish(
            _StubModel(
                plan,
                [_flat_estimate(plan.members[s].size) for s in range(2)],
                (1.0, 1.0),
            )
        )
        assert service.reload() is True
        assert service.version == 2

    def test_score_uses_stitched_scale(self, tmp_path):
        service = LinkPredictionService(
            _publish(tmp_path, values=(1.0, 1.0), scales=(1.0, 0.5))
        )
        assert service.score(5, 6) == pytest.approx(0.5)
        assert service.score(0, 1) == pytest.approx(1.0)
        assert service.score(2, 2) == 0.0

    def test_micro_batcher_coalesces_sharded_queries(self, tmp_path):
        service = LinkPredictionService(_publish(tmp_path))
        expected = service.top_k(3, k=4)
        service.cache.invalidate()
        with MicroBatcher(service, max_batch=8) as batcher:
            assert batcher.submit(3, k=4) == expected

    def test_metrics_text_renders(self, tmp_path):
        service = LinkPredictionService(_publish(tmp_path))
        service.top_k(0, k=3)
        text = service.metrics_text()
        assert "sharding_healthy_shards" in text or "sharding" in text


class TestStitchedTracing:
    """Tentpole: one sharded request → one stitched cross-shard trace."""

    def _traced_service(self, tmp_path, **tracer_kwargs):
        from repro.observability.metrics import MetricsRegistry
        from repro.observability.tracer import Tracer

        registry = MetricsRegistry()
        tracer = Tracer(registry, **tracer_kwargs)
        service = LinkPredictionService(
            _publish(tmp_path), tracer=tracer, registry=registry
        )
        return service, tracer

    def test_sharded_topk_produces_one_stitched_trace(self, tmp_path):
        service, tracer = self._traced_service(tmp_path, default_rate=1.0)
        with tracer.trace("topk") as trace:
            service.top_k(3, k=5)  # boundary user → both shards
        finished = tracer.finished()
        assert len(finished) == 1
        assert finished[0] is trace
        names = [span.name for span in trace.spans()]
        assert names[0] == "request.topk"
        assert "serve.top_k" in names
        shard_spans = [
            span
            for span in trace.spans()
            if span.name.startswith("serve.shard[")
        ]
        assert [span.name for span in shard_spans] == [
            "serve.shard[000]",
            "serve.shard[001]",
        ]
        assert all(span.duration >= 0.0 for span in shard_spans)
        # The shard spans are children of serve.top_k, not loose roots.
        top_k_span = next(
            span for span in trace.spans() if span.name == "serve.top_k"
        )
        descendants = list(top_k_span.iter_spans())
        assert all(span in descendants for span in shard_spans)

    def test_unsampled_request_records_no_spans(self, tmp_path):
        service, tracer = self._traced_service(tmp_path, default_rate=0.0)
        with tracer.trace("topk"):
            service.top_k(3, k=5)
        assert tracer.finished() == []

    def test_sampling_reproducible_from_trace_id(self, tmp_path):
        from repro.observability.propagation import sampling_decision

        service, tracer = self._traced_service(tmp_path, default_rate=0.4)
        for trace_id in (f"{i:016x}" for i in range(20)):
            with tracer.trace("topk", trace_id=trace_id) as trace:
                service.top_k(3, k=5)
            service.cache.invalidate()
            assert trace.sampled == sampling_decision(trace_id, 0.4)

    def test_shard_seconds_histogram_drains_to_registry(self, tmp_path):
        service, tracer = self._traced_service(tmp_path, default_rate=0.0)
        service.top_k(3, k=5)
        text = service.metrics_text()
        assert "repro_sharding_shard_seconds_count 2" in text

    def test_hot_counters_survive_drain_cycle(self, tmp_path):
        service, tracer = self._traced_service(tmp_path, default_rate=0.0)
        service.top_k(3, k=5)
        service.top_k(3, k=5)  # second hits the cache
        counters = service.stats()["counters"]
        assert counters["serve.requests"] == 2
        assert counters["serve.cache_hit"] == 1
        assert counters["serve.cache_miss"] == 1
        text = service.metrics_text()
        assert "repro_serving_cache_hits_total 1" in text
        assert "repro_serving_cache_misses_total 1" in text


class TestSharedServiceContract:
    """Reload faults and the degraded tier behave as for any artifact."""

    def _publish_v2(self, store):
        plan = _plan()
        store.publish(
            _StubModel(
                plan,
                [_flat_estimate(plan.members[s].size) for s in range(2)],
                (1.0, 1.0),
            )
        )

    def test_reload_fault_serves_stale_version(self, tmp_path):
        from repro.reliability.faults import GLOBAL_INJECTOR

        store = _publish(tmp_path)
        service = LinkPredictionService(store)
        self._publish_v2(store)
        GLOBAL_INJECTOR.arm("serving.reload", times=1)
        try:
            assert service.reload() is False
        finally:
            GLOBAL_INJECTOR.reset()
        assert service.version == 1
        assert service.top_k(3, k=2) == [(0, 1.0), (1, 1.0)]
        assert "injected" in service.stats()["last_reload_error"]
        text = service.metrics_text()
        assert "repro_serving_reload_failure_total 1" in text
        assert "repro_serving_artifact_version 1" in text
        assert service.reload() is True
        assert "repro_serving_artifact_version 2" in service.metrics_text()

    def _graph(self):
        # Path 0-1-2 plus the cross-shard edge 3-5: users 0 and 2 share
        # the neighbor 1, users 3 and 5 share none.
        rows, cols = [0, 1, 1, 2, 3, 5], [1, 0, 2, 1, 5, 3]
        return sparse.csr_matrix(
            (np.ones(len(rows)), (rows, cols)), shape=(N_USERS, N_USERS)
        )

    def test_degraded_tier_engages_on_sharded_artifact(self, tmp_path):
        service = LinkPredictionService(
            _publish(tmp_path, self._graph()), enable_degraded_tier=True
        )
        model_answer = service.top_k(0, k=2)
        assert model_answer == [(2, 1.0), (3, 1.0)]
        assert service.score(0, 3) == pytest.approx(1.0)
        assert service.engage_degraded("test")
        assert service.top_k(0, k=2) == [(2, 1.0)]
        assert service.batch_top_k_mixed([0, 0], [2, 1]) == [[(2, 1.0)]] * 2
        assert service.score(0, 3) == 0.0
        assert service.stats()["degraded"] is True
        service.disengage_degraded()
        assert service.top_k(0, k=2) == model_answer

    def test_open_reload_breaker_forces_degraded_entry(self, tmp_path):
        service = LinkPredictionService(
            _publish(tmp_path, self._graph()), enable_degraded_tier=True
        )
        for _ in range(3):
            service.reload_breaker.record_failure()
        assert service.degraded_active
        assert service.top_k(0, k=2) == [(2, 1.0)]
