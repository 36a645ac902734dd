"""Tests for the truncated (scalable) singular value thresholding path."""

import warnings

import numpy as np
import pytest

from repro.exceptions import TruncatedSVTWarning
from repro.observability.tracer import Tracer
from repro.optim.proximal import (
    TraceNormProx,
    singular_value_threshold,
    truncated_singular_value_threshold,
)


@pytest.fixture()
def low_rank_plus_noise(rng):
    """A 40×40 matrix with 3 dominant directions plus small noise."""
    u = rng.normal(size=(40, 3))
    base = u @ u.T * 5.0
    return base + rng.normal(scale=0.05, size=(40, 40))


class TestTruncatedSvt:
    def test_matches_exact_when_threshold_prunes(self, low_rank_plus_noise):
        """With the tail below the threshold, truncated == exact SVT."""
        singular = np.linalg.svd(low_rank_plus_noise, compute_uv=False)
        threshold = float(singular[3] + 1.0)  # keeps only the top 3
        exact = singular_value_threshold(low_rank_plus_noise, threshold)
        truncated = truncated_singular_value_threshold(
            low_rank_plus_noise, threshold, rank=5
        )
        assert np.allclose(exact, truncated, atol=1e-6)

    def test_falls_back_to_dense_for_large_rank(self, rng):
        matrix = rng.normal(size=(6, 6))
        exact = singular_value_threshold(matrix, 0.2)
        out = truncated_singular_value_threshold(matrix, 0.2, rank=10)
        assert np.allclose(exact, out)

    def test_invalid_rank(self, rng):
        with pytest.raises(ValueError, match="rank"):
            truncated_singular_value_threshold(rng.normal(size=(4, 4)), 0.1, 0)

    def test_output_rank_bounded(self, low_rank_plus_noise):
        out = truncated_singular_value_threshold(
            low_rank_plus_noise, 0.5, rank=4
        )
        singular = np.linalg.svd(out, compute_uv=False)
        assert (singular > 1e-8).sum() <= 4


class TestLossyTruncationWarning:
    def test_warns_when_tail_exceeds_threshold(self, rng):
        """A rank budget too small for the spectrum must be flagged."""
        u = rng.normal(size=(30, 6))
        matrix = u @ u.T * 5.0  # six comparable directions
        tracer = Tracer()
        with tracer.trace("svt") as trace, pytest.warns(TruncatedSVTWarning):
            truncated_singular_value_threshold(
                matrix, 0.01, rank=2, tracer=tracer
            )
        assert tracer.counters["svt.lossy_truncations"] == 1
        assert trace.metrics["svt.tail_excess"][0] > 0.0

    def test_silent_when_tail_below_threshold(self, low_rank_plus_noise):
        singular = np.linalg.svd(low_rank_plus_noise, compute_uv=False)
        threshold = float(singular[3] + 1.0)
        tracer = Tracer()
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncatedSVTWarning)
            truncated_singular_value_threshold(
                low_rank_plus_noise, threshold, rank=5, tracer=tracer
            )
        assert "svt.lossy_truncations" not in tracer.counters


class TestTraceNormProxMaxRank:
    def test_max_rank_path(self, low_rank_plus_noise):
        singular = np.linalg.svd(low_rank_plus_noise, compute_uv=False)
        threshold = float(singular[3] + 1.0)
        exact = TraceNormProx(threshold).apply(low_rank_plus_noise, 1.0)
        truncated = TraceNormProx(threshold, max_rank=5).apply(
            low_rank_plus_noise, 1.0
        )
        assert np.allclose(exact, truncated, atol=1e-6)

    def test_invalid_max_rank(self):
        with pytest.raises(ValueError):
            TraceNormProx(1.0, max_rank=0)

    def test_repr_mentions_rank(self):
        assert "max_rank=7" in repr(TraceNormProx(1.0, max_rank=7))


class TestSlamPredSvdRank:
    def test_model_accepts_svd_rank(self, task, split):
        from repro.evaluation.metrics import auc_score
        from repro.models.slampred import SlamPredT

        model = SlamPredT(svd_rank=20).fit(task)
        auc = auc_score(model.score_pairs(split.test_pairs), split.test_labels)
        assert auc > 0.55

    def test_invalid_svd_rank(self):
        from repro.exceptions import ConfigurationError
        from repro.models.slampred import SlamPred

        with pytest.raises(ConfigurationError):
            SlamPred(svd_rank=0)
