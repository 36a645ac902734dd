"""Tests for LinkPredictionService: ranking, caching, hot-swap reload."""

import os

import numpy as np
import pytest
from scipy import sparse

from repro.exceptions import ConfigurationError, UnknownNodeError
from repro.factored.estimate import FactoredEstimate
from repro.models.persistence import FrozenFactoredPredictor, FrozenPredictor
from repro.serving.artifacts import ArtifactStore
from repro.serving.service import LinkPredictionService
from repro.sharding.artifacts import ShardedArtifactStore
from repro.sharding.partition import ShardPlan


class TestTopK:
    def test_excludes_self_and_known_links(self, service, adjacency):
        for user in range(service.n_users):
            for candidate, _ in service.top_k(user, k=10):
                assert candidate != user
                assert adjacency[user, candidate] == 0

    def test_sorted_descending_and_deduplicated(self, service):
        ranking = service.top_k(3, k=8)
        scores = [score for _, score in ranking]
        assert scores == sorted(scores, reverse=True)
        users = [candidate for candidate, _ in ranking]
        assert len(users) == len(set(users))

    def test_matches_exhaustive_ranking(self, service, score_matrix, adjacency):
        user = 5
        masked = score_matrix[user].copy()
        masked[user] = -np.inf
        masked[adjacency[user] > 0] = -np.inf
        expected = np.argsort(-masked, kind="stable")[:4]
        got = [candidate for candidate, _ in service.top_k(user, k=4)]
        assert got == [int(j) for j in expected]

    def test_fully_connected_user_gets_empty_list(self, tmp_path):
        adjacency = 1.0 - np.eye(4)
        store = ArtifactStore(str(tmp_path / "full"))
        store.publish(FrozenPredictor(np.ones((4, 4))), graph=adjacency)
        service = LinkPredictionService(store)
        assert service.top_k(0, k=5) == []

    def test_k_larger_than_population(self, service):
        ranking = service.top_k(0, k=1000)
        assert 0 < len(ranking) < service.n_users

    def test_bad_inputs(self, service):
        with pytest.raises(UnknownNodeError):
            service.top_k(999)
        with pytest.raises(UnknownNodeError):
            service.score(0, -1)
        with pytest.raises(ConfigurationError):
            service.top_k(0, k=0)


class TestScore:
    def test_raw_matrix_entry(self, service, score_matrix):
        assert service.score(1, 2) == pytest.approx(score_matrix[1, 2])

    def test_known_link_flag(self, service, adjacency):
        links = np.argwhere(adjacency > 0)
        u, v = (int(links[0][0]), int(links[0][1])) if len(links) else (0, 1)
        if len(links):
            assert service.is_known_link(u, v)
        assert not service.is_known_link(0, 0)


class TestCaching:
    def test_repeat_queries_hit_cache(self, service):
        first = service.top_k(2, k=5)
        second = service.top_k(2, k=5)
        assert first == second
        stats = service.stats()
        assert stats["cache"]["hits"] == 1
        assert service.tracer.counters["serve.cache_hit"] == 1
        assert service.tracer.counters["serve.cache_miss"] == 1

    def test_distinct_k_cached_separately(self, service):
        service.top_k(2, k=5)
        service.top_k(2, k=6)
        assert service.stats()["cache"]["misses"] == 2

    def test_batch_fills_cache_for_singles(self, service):
        service.batch_top_k([1, 2, 3], k=5)
        service.top_k(2, k=5)
        assert service.tracer.counters["serve.cache_hit"] == 1


class TestBatchTopK:
    def test_agrees_with_single_queries(self, service):
        batched = service.batch_top_k([0, 4, 9], k=6)
        fresh = LinkPredictionService(service.store, cache_size=16)
        singles = [fresh.top_k(user, k=6) for user in (0, 4, 9)]
        assert batched == singles

    def test_duplicate_users_share_answer(self, service):
        a, b = service.batch_top_k([7, 7], k=3)
        assert a == b

    def test_counts_per_query(self, service):
        service.batch_top_k([0, 1, 2], k=4)
        assert service.tracer.counters["serve.topk_requests"] == 3


class TestReload:
    def test_noop_when_current(self, service):
        assert service.reload() is False
        assert service.tracer.counters["serve.reload_noop"] == 1

    def test_hot_swap_to_new_version(self, service, store):
        old = service.top_k(0, k=3)
        n = service.n_users
        store.publish(FrozenPredictor(np.arange(n * n, dtype=float).reshape(n, n)))
        assert service.reload() is True
        assert service.version == 2
        assert service.top_k(0, k=3) != old
        assert service.stats()["cache"]["invalidations"] == 1

    def test_falls_back_when_new_version_corrupt(self, service, store):
        baseline = service.top_k(0, k=3)
        n = service.n_users
        version = store.publish(FrozenPredictor(np.eye(n)))
        model_path = os.path.join(store.path(version), "model.npz")
        open(model_path, "wb").write(b"corrupted")
        assert service.reload() is False
        assert service.version == 1
        assert service.top_k(0, k=3) == baseline
        stats = service.stats()
        assert service.tracer.counters["serve.reload_failed"] == 1
        assert "integrity" in stats["last_reload_error"]

    def test_recovers_after_good_publish(self, service, store, predictor):
        n = service.n_users
        bad = store.publish(FrozenPredictor(np.eye(n)))
        open(os.path.join(store.path(bad), "model.npz"), "wb").write(b"x")
        service.reload()
        store.publish(predictor)
        assert service.reload() is True
        assert service.version == 3
        assert service.stats()["last_reload_error"] is None


class TestStats:
    def test_shape(self, service):
        service.top_k(0, k=2)
        stats = service.stats()
        assert stats["version"] == 1
        assert stats["model"] == "toy-model"
        assert stats["n_users"] == 24
        assert stats["uptime_seconds"] >= 0
        assert stats["counters"]["serve.requests"] == 1
        assert set(stats["cache"]) >= {"hits", "misses", "evictions", "size"}

    def test_accepts_store_path_string(self, store):
        service = LinkPredictionService(store.root)
        assert service.version == 1


def _factors(rng, n, rank=3):
    """A positive rank-``rank`` estimate (every score above zero)."""
    return FactoredEstimate(
        rng.random((n, rank)),
        np.linspace(1.0, 0.5, rank),
        rng.random((rank, n)),
        sparse.csr_matrix((n, n)),
    )


class _ShardedStub:
    """The fitted-model surface ``ShardedArtifactStore.publish`` reads."""

    name = "lifecycle-sharded"

    def __init__(self, rng, n):
        half = n // 2
        self.plan = ShardPlan(
            shard_of=np.repeat([0, 1], [half, n - half]),
            anchors=[np.array([half]), np.array([half - 1])],
        )
        self.estimates = [
            _factors(rng, self.plan.members[s].size) for s in range(2)
        ]
        self.scales = np.array([1.0, 0.8])


def _publisher(kind, root, adjacency, rng):
    """A store of ``kind`` and a callable publishing a fresh model to it."""
    n = adjacency.shape[0]
    if kind == "dense-npz":
        store = ArtifactStore(root)
        model = lambda: FrozenPredictor(rng.random((n, n)), {"name": kind})
    elif kind == "factored-npy":
        store = ArtifactStore(root, layout="npy")
        model = lambda: FrozenFactoredPredictor(
            _factors(rng, n), {"name": kind}
        )
    else:
        store = ShardedArtifactStore(root)
        model = lambda: _ShardedStub(rng, n)
    return store, lambda: store.publish(model(), graph=adjacency)


@pytest.mark.parametrize("kind", ["dense-npz", "factored-npy", "sharded"])
def test_serving_lifecycle(kind, tmp_path, adjacency, rng):
    """One service serves every artifact kind through the same lifecycle."""
    store, publish = _publisher(kind, str(tmp_path / kind), adjacency, rng)
    publish()
    service = LinkPredictionService(store, cache_size=64)
    n = service.n_users
    for user in range(n):
        ranking = service.top_k(user, k=5)
        assert 0 < len(ranking) <= 5
        assert all(c != user and adjacency[user, c] == 0 for c, _ in ranking)
        scores = [score for _, score in ranking]
        assert scores == sorted(scores, reverse=True)
        best, best_score = ranking[0]
        assert service.score(user, best) == pytest.approx(best_score)
    service.cache.invalidate()
    answers = service.batch_top_k_mixed([0, 3, 0, 7], [5, 2, 1, 5])
    assert answers[2] == answers[0][:1]
    # Batched factored rows may differ from single rows in the last bit.
    expected = [service.top_k(3, k=5)[:2], service.top_k(7, k=5)]
    for got, want in zip([answers[1], answers[3]], expected):
        assert [c for c, _ in got] == [c for c, _ in want]
        assert [s for _, s in got] == pytest.approx([s for _, s in want])
    assert service.reload() is False
    publish()
    assert service.reload() is True
    assert service.version == 2
    assert service.stats()["cache"]["size"] == 0
    assert len(service.top_k(0, k=5)) == 5
    stats = service.stats()
    assert stats["version"] == 2
    assert stats["n_users"] == n
    assert stats["ready"] is True
    assert stats["counters"]["serve.reloads"] == 1
    assert stats["counters"]["serve.reload_noop"] == 1
    text = service.metrics_text()
    assert "repro_serving_artifact_version 2" in text
    assert "repro_serving_reload_success_total 1" in text
    assert "repro_serving_reload_noop_total 1" in text
