"""Tests for the truncated (rank-capped) singular value thresholding path.

The one truncated SVT is :class:`~repro.perf.warm_svt.WarmStartSVT` with a
rank cap (``initial_rank=r, max_rank=r``), the operator a model's
``svd_rank`` selects.  ``dense_cutoff`` is lowered so these small matrices
take the randomized path instead of the exact dense SVD.
"""

import warnings

import numpy as np
import pytest

from repro.exceptions import TruncatedSVTWarning
from repro.observability.tracer import Tracer
from repro.optim.proximal import TraceNormProx, singular_value_threshold
from repro.perf.warm_svt import WarmStartSVT


def _capped(rank: int) -> WarmStartSVT:
    """The rank-``rank`` truncated SVT, forced off the dense path."""
    return WarmStartSVT(initial_rank=rank, max_rank=rank, dense_cutoff=4)


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
        engine = _capped(5)
        truncated = engine.apply(low_rank_plus_noise, threshold)
        assert np.allclose(exact, truncated, atol=1e-6)
        assert engine.stats["dense_applies"] == 0

    def test_falls_back_to_dense_for_large_rank(self, rng):
        matrix = rng.normal(size=(6, 6))
        exact = singular_value_threshold(matrix, 0.2)
        out = _capped(10).apply(matrix, 0.2)
        assert np.allclose(exact, out)

    def test_invalid_rank(self):
        with pytest.raises(ValueError, match="initial_rank"):
            WarmStartSVT(initial_rank=0)

    def test_output_rank_bounded(self, low_rank_plus_noise):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncatedSVTWarning)
            out = _capped(4).apply(low_rank_plus_noise, 0.5)
        singular = np.linalg.svd(out, compute_uv=False)
        assert (singular > 1e-8).sum() <= 4


class TestLossyTruncationWarning:
    def test_warns_when_tail_exceeds_threshold(self, rng):
        """A rank budget too small for the spectrum must be flagged."""
        u = rng.normal(size=(30, 6))
        matrix = u @ u.T * 5.0  # six comparable directions
        tracer = Tracer()
        engine = _capped(2)
        with tracer.trace("svt") as trace, pytest.warns(TruncatedSVTWarning):
            engine.apply(matrix, 0.01, tracer=tracer)
        assert tracer.counters["svt.lossy_truncations"] == 1
        assert engine.stats["lossy_truncations"] == 1
        assert trace.metrics["svt.tail_excess"][0] > 0.0

    def test_silent_when_tail_below_threshold(self, low_rank_plus_noise):
        singular = np.linalg.svd(low_rank_plus_noise, compute_uv=False)
        threshold = float(singular[3] + 1.0)
        tracer = Tracer()
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncatedSVTWarning)
            _capped(5).apply(low_rank_plus_noise, threshold, tracer=tracer)
        assert "svt.lossy_truncations" not in tracer.counters


class TestTraceNormProxMaxRank:
    """``TraceNormProx`` over a ``max_rank``-capped engine."""

    def test_max_rank_path(self, low_rank_plus_noise):
        singular = np.linalg.svd(low_rank_plus_noise, compute_uv=False)
        threshold = float(singular[3] + 1.0)
        exact = TraceNormProx(threshold).apply(low_rank_plus_noise, 1.0)
        truncated = TraceNormProx(threshold, engine=_capped(5)).apply(
            low_rank_plus_noise, 1.0
        )
        assert np.allclose(exact, truncated, atol=1e-6)

    def test_invalid_max_rank(self):
        with pytest.raises(ValueError, match="max_rank"):
            TraceNormProx(1.0, engine=WarmStartSVT(max_rank=0))

    def test_repr_mentions_rank(self):
        prox = TraceNormProx(1.0, engine=WarmStartSVT(max_rank=7))
        assert "max_rank=7" in repr(prox)


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
