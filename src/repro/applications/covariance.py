"""Sparse + low-rank covariance estimation.

Richard et al. (ICML 2012) motivate simultaneously sparse and low-rank
estimation with covariance matrices: under a factor model, the population
covariance is ``low-rank (common factors) + sparse (idiosyncratic)`` and a
sample covariance is a noisy observation of it.  The estimator::

    min_S ‖S − Σ̂‖_F² + γ‖S‖₁ + τ‖S‖*

shrinks sampling noise in both spectra and entries.  The diagonal is not
ℓ1-penalized (variances are never sparse) and the output is symmetrized and
eigenvalue-clipped to stay a valid covariance.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import NotFittedError, OptimizationError
from repro.optim.convergence import ConvergenceCriterion
from repro.optim.forward_backward import ForwardBackwardSolver
from repro.optim.losses import SquaredFrobeniusLoss
from repro.optim.proximal import TraceNormProx, soft_threshold
from repro.utils.validation import check_integer, check_non_negative, check_positive


class _OffDiagonalL1Prox:
    """ℓ1 prox applied to off-diagonal entries only."""

    def __init__(self, weight: float):
        self.weight = check_non_negative(weight, "weight")

    def value(self, matrix: np.ndarray) -> float:
        off = matrix - np.diag(np.diag(matrix))
        return self.weight * float(np.abs(off).sum())

    def apply(self, matrix: np.ndarray, step: float, tracer=None) -> np.ndarray:
        out = soft_threshold(matrix, step * self.weight, tracer=tracer)
        np.fill_diagonal(out, np.diag(matrix))
        return out


class SparseLowRankCovariance:
    """Shrinkage covariance estimator on the SLAMPRED proximal stack.

    Parameters
    ----------
    gamma:
        Off-diagonal sparsity weight.
    tau:
        Trace-norm (spectral shrinkage) weight.
    step_size, max_iterations, tolerance:
        Solver settings.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> samples = rng.normal(size=(200, 6))
    >>> estimator = SparseLowRankCovariance().fit(samples)
    >>> estimator.covariance.shape
    (6, 6)
    """

    def __init__(
        self,
        gamma: float = 0.05,
        tau: float = 0.5,
        step_size: float = 0.1,
        max_iterations: int = 500,
        tolerance: float = 1e-7,
    ):
        self.gamma = check_non_negative(gamma, "gamma")
        self.tau = check_non_negative(tau, "tau")
        self.step_size = check_positive(step_size, "step_size")
        self.max_iterations = check_integer(
            max_iterations, "max_iterations", minimum=1
        )
        self.tolerance = check_positive(tolerance, "tolerance")
        self._covariance: Optional[np.ndarray] = None

    @property
    def covariance(self) -> np.ndarray:
        """The estimated covariance (symmetric positive semi-definite)."""
        if self._covariance is None:
            raise NotFittedError("SparseLowRankCovariance has not been fitted")
        return self._covariance

    def fit(self, samples: np.ndarray) -> "SparseLowRankCovariance":
        """Estimate from an ``(n_samples, n_features)`` data matrix."""
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 2:
            raise OptimizationError(
                f"samples must be 2-D, got shape {samples.shape}"
            )
        if samples.shape[0] < 2:
            raise OptimizationError("need at least two samples")
        centered = samples - samples.mean(axis=0)
        empirical = centered.T @ centered / (samples.shape[0] - 1)
        return self.fit_from_empirical(empirical)

    def fit_from_empirical(
        self, empirical: np.ndarray
    ) -> "SparseLowRankCovariance":
        """Estimate from a precomputed empirical covariance."""
        empirical = np.asarray(empirical, dtype=float)
        if (
            empirical.ndim != 2
            or empirical.shape[0] != empirical.shape[1]
            or not np.allclose(empirical, empirical.T, atol=1e-8)
        ):
            raise OptimizationError(
                "empirical covariance must be a symmetric square matrix"
            )
        solver = ForwardBackwardSolver(
            step_size=self.step_size,
            criterion=ConvergenceCriterion(
                tolerance=self.tolerance, max_iterations=self.max_iterations
            ),
        )
        solution = solver.solve(
            empirical,
            [SquaredFrobeniusLoss(empirical)],
            [TraceNormProx(self.tau), _OffDiagonalL1Prox(self.gamma)],
        )
        solution = (solution + solution.T) / 2.0
        eigenvalues, eigenvectors = np.linalg.eigh(solution)
        eigenvalues = np.clip(eigenvalues, 0.0, None)
        self._covariance = (
            eigenvectors * eigenvalues[None, :]
        ) @ eigenvectors.T
        return self

    def precision(self, ridge: float = 1e-8) -> np.ndarray:
        """Inverse of the estimated covariance (ridge-stabilized)."""
        covariance = self.covariance
        return np.linalg.inv(
            covariance + ridge * np.eye(covariance.shape[0])
        )
