"""From-scratch regularized logistic regression.

The SCAN and PL baselines need a binary classifier.  scikit-learn is not a
dependency of this reproduction, so a small L2-regularized logistic
regression is implemented directly on numpy + scipy: features are
standardized, the negative log-likelihood is minimized with L-BFGS, and the
model exposes ``predict_proba`` scores used as link confidences.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.optimize

from repro.exceptions import NotFittedError, OptimizationError
from repro.utils.validation import check_non_negative


class LogisticRegression:
    """Binary logistic regression with L2 regularization.

    Parameters
    ----------
    l2:
        Regularization strength on the weights (the intercept is not
        penalized).
    max_iter:
        L-BFGS iteration cap.
    standardize:
        Whether to z-score features before fitting (recommended — feature
        families here have wildly different scales).
    """

    def __init__(
        self, l2: float = 1.0, max_iter: int = 200, standardize: bool = True
    ):
        self.l2 = check_non_negative(l2, "l2")
        self.max_iter = int(max_iter)
        self.standardize = bool(standardize)
        self.weights: Optional[np.ndarray] = None
        self.intercept: float = 0.0
        self._mean: Optional[np.ndarray] = None
        self._scale: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def fit(self, features: np.ndarray, labels: np.ndarray) -> "LogisticRegression":
        """Fit on ``(n_samples, n_features)`` features and 0/1 labels."""
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels, dtype=float).ravel()
        if features.ndim != 2:
            raise OptimizationError(
                f"features must be 2-D, got shape {features.shape}"
            )
        if features.shape[0] != labels.shape[0]:
            raise OptimizationError(
                f"{features.shape[0]} samples but {labels.shape[0]} labels"
            )
        if not np.all(np.isin(labels, (0.0, 1.0))):
            raise OptimizationError("labels must be binary 0/1")
        if features.shape[0] == 0:
            raise OptimizationError("cannot fit on zero samples")
        if self.standardize:
            self._mean = features.mean(axis=0)
            scale = features.std(axis=0)
            self._scale = np.where(scale > 0, scale, 1.0)
            features = (features - self._mean) / self._scale
        n_features = features.shape[1]
        # Degenerate single-class data: fall back to a constant predictor at
        # the empirical base rate rather than failing.
        if labels.min() == labels.max():
            self.weights = np.zeros(n_features)
            base = float(labels.mean())
            base = min(max(base, 1e-6), 1 - 1e-6)
            self.intercept = float(np.log(base / (1 - base)))
            return self
        theta0 = np.zeros(n_features + 1)

        def objective(theta: np.ndarray):
            weights, intercept = theta[:-1], theta[-1]
            logits = features @ weights + intercept
            # log(1 + exp(z)) computed stably
            log_partition = np.logaddexp(0.0, logits)
            nll = float(np.sum(log_partition - labels * logits))
            nll += 0.5 * self.l2 * float(weights @ weights)
            probs = _sigmoid(logits)
            grad_w = features.T @ (probs - labels) + self.l2 * weights
            grad_b = float(np.sum(probs - labels))
            return nll, np.concatenate([grad_w, [grad_b]])

        result = scipy.optimize.minimize(
            objective,
            theta0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter},
        )
        self.weights = result.x[:-1]
        self.intercept = float(result.x[-1])
        return self

    # ------------------------------------------------------------------
    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Raw logits for samples."""
        if self.weights is None:
            raise NotFittedError("LogisticRegression has not been fitted")
        features = np.asarray(features, dtype=float)
        if self.standardize and self._mean is not None:
            features = (features - self._mean) / self._scale
        return features @ self.weights + self.intercept

    def raw_coefficients(self):
        """``(weights, intercept)`` acting on unstandardized features.

        Standardization is affine, so ``decision_function(x)`` equals
        ``x @ weights + intercept`` with these (up to rounding): callers
        can evaluate the model one feature column at a time, without the
        centred and scaled copy of the features ``decision_function``
        makes.
        """
        if self.weights is None:
            raise NotFittedError("LogisticRegression has not been fitted")
        if not (self.standardize and self._mean is not None):
            return self.weights.copy(), self.intercept
        weights = self.weights / self._scale
        return weights, self.intercept - float(weights @ self._mean)

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """P(label = 1) per sample."""
        return _sigmoid(self.decision_function(features))

    def predict(self, features: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Hard 0/1 predictions at ``threshold``."""
        return (self.predict_proba(features) >= threshold).astype(float)


def _sigmoid(logits: np.ndarray) -> np.ndarray:
    out = np.empty_like(logits, dtype=float)
    positive = logits >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-logits[positive]))
    exp_l = np.exp(logits[~positive])
    out[~positive] = exp_l / (1.0 + exp_l)
    return out
