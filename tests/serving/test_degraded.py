"""Degraded-tier transitions and the common-neighbor scorer."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.models.persistence import FrozenPredictor
from repro.serving.artifacts import ArtifactStore
from repro.serving.degraded import CommonNeighborScorer
from repro.serving.service import LinkPredictionService


@pytest.fixture()
def adjacency():
    # 0-1, 0-2, 1-2 triangle plus 2-3 pendant: 0 and 3 share neighbor 2.
    return np.array(
        [[0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 0, 1], [0, 0, 1, 0]],
        dtype=float,
    )


@pytest.fixture()
def service(tmp_path, adjacency):
    store = ArtifactStore(str(tmp_path))
    scores = np.random.default_rng(3).random((4, 4))
    store.publish(FrozenPredictor(scores), graph=adjacency)
    return LinkPredictionService(store, enable_degraded_tier=True)


class TestCommonNeighborScorer:
    def test_counts_shared_neighbors(self, adjacency):
        scorer = CommonNeighborScorer(adjacency)
        assert scorer.score(0, 3) == 1.0  # via node 2
        assert scorer.score(0, 1) == 1.0  # via node 2
        assert scorer.score(1, 3) == 1.0

    def test_top_k_masks_known_links_and_self(self, adjacency):
        scorer = CommonNeighborScorer(adjacency)
        ranking = scorer.top_k(0, k=4)
        assert [v for v, _ in ranking] == [3]

    def test_rejects_non_square(self):
        with pytest.raises(ConfigurationError):
            CommonNeighborScorer(np.zeros((2, 3)))

    def test_accepts_sparse_input(self, adjacency):
        from scipy import sparse

        scorer = CommonNeighborScorer(sparse.csr_matrix(adjacency))
        assert scorer.score(0, 3) == 1.0


class TestTransitions:
    def test_disabled_by_default(self, tmp_path, adjacency):
        store = ArtifactStore(str(tmp_path / "plain"))
        store.publish(FrozenPredictor(np.eye(4)), graph=adjacency)
        plain = LinkPredictionService(store)
        assert not plain.degraded_active
        assert not plain.engage_degraded("nope")

    def test_explicit_engage_disengage(self, service):
        model_answer = service.top_k(0, k=1)
        assert service.engage_degraded("test")
        assert service.degraded_active
        assert service.top_k(0, k=1) == [(3, 1.0)]
        assert service.score(0, 3) == 1.0
        service.disengage_degraded()
        assert not service.degraded_active
        assert service.top_k(0, k=1) == model_answer

    def test_open_reload_breaker_forces_entry(self, service):
        for _ in range(3):
            service.reload_breaker.record_failure()
        assert service.reload_breaker.state == "open"
        assert service.degraded_active
        assert service.top_k(0, k=1) == [(3, 1.0)]

    def test_batch_path_degrades_too(self, service):
        service.engage_degraded("test")
        answers = service.batch_top_k([0, 1], k=2)
        assert answers[0] == [(3, 1.0)]

    def test_degraded_answers_never_cached(self, service):
        model_answer = service.top_k(0, k=1)
        service.engage_degraded("test")
        degraded_answer = service.top_k(0, k=1)
        service.disengage_degraded()
        assert service.top_k(0, k=1) == model_answer != degraded_answer

    def test_gauge_and_stats_track_state(self, service):
        assert service.stats()["degraded"] is False
        service.engage_degraded("why-not")
        stats = service.stats()
        assert stats["degraded"] is True
        assert stats["degraded_reason"] == "why-not"
        assert "serving_degraded_mode 1" in service.metrics_text()
        service.disengage_degraded()
        assert "serving_degraded_mode 0" in service.metrics_text()

    def test_degraded_requests_counted(self, service):
        service.engage_degraded("test")
        service.top_k(0, k=1)
        service.score(0, 3)
        assert "serving_degraded_requests_total 2" in service.metrics_text()


class TestTierFollowsServedArtifact:
    def test_graphless_reload_leaves_no_degraded_tier(self, tmp_path, adjacency):
        # The tier is built from the served artifact only: after a reload
        # to a larger artifact without a graph, the old 4-user graph must
        # not answer (it would raise IndexError for user 4, and answer
        # user 0 from a graph that is no longer served).
        store = ArtifactStore(str(tmp_path / "grow"))
        store.publish(FrozenPredictor(np.eye(4)), graph=adjacency)
        service = LinkPredictionService(store, enable_degraded_tier=True)
        scores = np.random.default_rng(4).random((5, 5))
        store.publish(FrozenPredictor(scores))
        assert service.reload()
        assert not service.engage_degraded("test")
        for _ in range(3):
            service.reload_breaker.record_failure()
        assert service.reload_breaker.state == "open"
        assert not service.degraded_active
        assert service.score(4, 0) == pytest.approx(scores[4, 0])
        assert [v for v, _ in service.top_k(4, k=4)] == [
            int(j) for j in np.argsort(-scores[4, :4], kind="stable")
        ]
        assert service.top_k(0, k=1)[0][0] == int(np.argmax(scores[0, 1:]) + 1)
