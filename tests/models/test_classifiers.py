"""Tests for repro.models.classifiers."""

import numpy as np
import pytest

from repro.exceptions import NotFittedError, OptimizationError
from repro.models.classifiers import LogisticRegression


@pytest.fixture()
def separable(rng):
    """Linearly separable 2-D data."""
    n = 100
    features = rng.normal(size=(n, 2))
    labels = (features[:, 0] + features[:, 1] > 0).astype(float)
    return features, labels


class TestFit:
    def test_separable_accuracy(self, separable):
        features, labels = separable
        model = LogisticRegression(l2=0.01).fit(features, labels)
        accuracy = (model.predict(features) == labels).mean()
        assert accuracy > 0.95

    def test_probabilities_in_range(self, separable):
        features, labels = separable
        model = LogisticRegression().fit(features, labels)
        probs = model.predict_proba(features)
        assert probs.min() >= 0.0 and probs.max() <= 1.0

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            LogisticRegression().predict_proba(np.zeros((1, 2)))

    def test_rejects_non_binary_labels(self):
        with pytest.raises(OptimizationError, match="binary"):
            LogisticRegression().fit(np.zeros((2, 2)), np.array([0.0, 2.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(OptimizationError):
            LogisticRegression().fit(np.zeros((3, 2)), np.zeros(2))

    def test_rejects_1d_features(self):
        with pytest.raises(OptimizationError, match="2-D"):
            LogisticRegression().fit(np.zeros(3), np.zeros(3))

    def test_rejects_empty(self):
        with pytest.raises(OptimizationError, match="zero"):
            LogisticRegression().fit(np.zeros((0, 2)), np.zeros(0))

    def test_single_class_constant(self):
        model = LogisticRegression().fit(np.random.rand(10, 2), np.ones(10))
        probs = model.predict_proba(np.random.rand(5, 2))
        assert np.allclose(probs, probs[0])
        assert probs[0] > 0.9

    def test_regularization_shrinks_weights(self, separable):
        features, labels = separable
        weak = LogisticRegression(l2=0.01).fit(features, labels)
        strong = LogisticRegression(l2=100.0).fit(features, labels)
        assert np.linalg.norm(strong.weights) < np.linalg.norm(weak.weights)

    def test_constant_feature_handled(self, rng):
        features = np.hstack([rng.normal(size=(50, 1)), np.ones((50, 1))])
        labels = (features[:, 0] > 0).astype(float)
        model = LogisticRegression().fit(features, labels)
        assert np.isfinite(model.predict_proba(features)).all()


class TestDecisionFunction:
    def test_monotone_with_proba(self, separable):
        features, labels = separable
        model = LogisticRegression().fit(features, labels)
        logits = model.decision_function(features)
        probs = model.predict_proba(features)
        order_logits = np.argsort(logits)
        order_probs = np.argsort(probs)
        assert np.array_equal(order_logits, order_probs)

    def test_extreme_logits_stable(self, separable):
        features, labels = separable
        model = LogisticRegression(standardize=False).fit(
            features * 1000, labels
        )
        probs = model.predict_proba(features * 1000)
        assert np.isfinite(probs).all()

    def test_threshold(self, separable):
        features, labels = separable
        model = LogisticRegression().fit(features, labels)
        strict = model.predict(features, threshold=0.9).sum()
        lax = model.predict(features, threshold=0.1).sum()
        assert strict <= lax


class TestStandardization:
    def test_standardize_improves_conditioning(self, rng):
        features = np.hstack(
            [rng.normal(size=(80, 1)) * 1e6, rng.normal(size=(80, 1))]
        )
        labels = (features[:, 1] > 0).astype(float)
        model = LogisticRegression(standardize=True).fit(features, labels)
        accuracy = (model.predict(features) == labels).mean()
        assert accuracy > 0.9

    def test_no_standardize_option(self, separable):
        features, labels = separable
        model = LogisticRegression(standardize=False).fit(features, labels)
        assert (model.predict(features) == labels).mean() > 0.9


class TestRawCoefficients:
    @pytest.mark.parametrize("standardize", [True, False])
    def test_reproduce_decision_function(self, rng, standardize):
        features = rng.normal(loc=3.0, scale=[[5.0, 0.1, 1.0]], size=(60, 3))
        labels = (features[:, 0] - 30 * features[:, 1] > 0).astype(float)
        model = LogisticRegression(standardize=standardize).fit(features, labels)
        weights, intercept = model.raw_coefficients()
        np.testing.assert_allclose(
            features @ weights + intercept,
            model.decision_function(features),
            rtol=1e-12,
            atol=1e-12,
        )

    def test_requires_fit(self):
        with pytest.raises(NotFittedError):
            LogisticRegression().raw_coefficients()
