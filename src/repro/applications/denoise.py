"""Graph denoising with sparse + low-rank estimation.

Observed social graphs contain *inconsistent* links — spurious connections
(spam, misclicks) and missing ones.  Under the communities-plus-noise model
the true structure is low-rank, so the estimator::

    min_S ‖S − A_observed‖_F² + γ‖S‖₁ + τ‖S‖*,   S ⪰ 0 entry-wise

recovers a cleaned score matrix whose strong entries are the consistent
links.  This is the estimation core of the link-inconsistency setting of
Zhi, Han & Gu (ECML-PKDD 2015), run on the exact solver stack of SLAMPRED.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import NotFittedError, OptimizationError
from repro.optim.convergence import ConvergenceCriterion
from repro.optim.forward_backward import ForwardBackwardSolver
from repro.optim.losses import SquaredFrobeniusLoss
from repro.optim.proximal import BoxProjection, L1Prox, TraceNormProx
from repro.perf.warm_svt import WarmStartSVT
from repro.utils.matrices import is_square, is_symmetric, zero_diagonal
from repro.utils.validation import check_integer, check_non_negative, check_positive


class GraphDenoiser:
    """Recover consistent structure from a noisy adjacency matrix.

    Parameters
    ----------
    gamma:
        Sparsity weight — higher suppresses more of the spurious links.
    tau:
        Low-rank weight — higher forces cleaner community structure.
    step_size, max_iterations, tolerance:
        Forward-backward solver settings.
    svd_rank:
        Optional rank cap for large graphs: the trace-norm prox then runs
        on a :class:`~repro.perf.warm_svt.WarmStartSVT` engine capped at
        this rank, as a SLAMPRED model's ``svd_rank`` does.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.applications import GraphDenoiser
    >>> blocks = np.kron(np.eye(2), np.ones((4, 4))) - np.eye(8)
    >>> denoiser = GraphDenoiser(tau=2.0).fit(blocks)
    >>> denoiser.scores.shape
    (8, 8)
    """

    def __init__(
        self,
        gamma: float = 0.05,
        tau: float = 2.0,
        step_size: float = 0.05,
        max_iterations: int = 500,
        tolerance: float = 1e-5,
        svd_rank: Optional[int] = None,
    ):
        self.gamma = check_non_negative(gamma, "gamma")
        self.tau = check_non_negative(tau, "tau")
        self.step_size = check_positive(step_size, "step_size")
        self.max_iterations = check_integer(
            max_iterations, "max_iterations", minimum=1
        )
        self.tolerance = check_positive(tolerance, "tolerance")
        self.svd_rank = svd_rank
        self._scores: Optional[np.ndarray] = None

    @property
    def scores(self) -> np.ndarray:
        """The denoised score matrix (non-negative, zero diagonal)."""
        if self._scores is None:
            raise NotFittedError("GraphDenoiser has not been fitted")
        return self._scores

    def fit(self, adjacency: np.ndarray) -> "GraphDenoiser":
        """Denoise a symmetric adjacency (binary or weighted, zero diagonal)."""
        adjacency = np.asarray(adjacency, dtype=float)
        if not is_square(adjacency):
            raise OptimizationError(
                f"adjacency must be square, got shape {adjacency.shape}"
            )
        if not is_symmetric(adjacency, atol=1e-9):
            raise OptimizationError("adjacency must be symmetric")
        engine = None
        if self.svd_rank is not None:
            engine = WarmStartSVT(
                initial_rank=self.svd_rank, max_rank=self.svd_rank
            )
        solver = ForwardBackwardSolver(
            step_size=self.step_size,
            criterion=ConvergenceCriterion(
                tolerance=self.tolerance, max_iterations=self.max_iterations
            ),
        )
        solution = solver.solve(
            adjacency,
            [SquaredFrobeniusLoss(adjacency)],
            [
                TraceNormProx(self.tau, engine=engine),
                L1Prox(self.gamma),
                BoxProjection(0.0, None),
            ],
        )
        self._scores = zero_diagonal(solution)
        return self

    def consistent_links(self, threshold: float = 0.5):
        """Canonical (i, j) pairs whose denoised score exceeds ``threshold``."""
        scores = self.scores
        rows, cols = np.nonzero(np.triu(scores > threshold, k=1))
        return list(zip(rows.tolist(), cols.tolist()))

    def flagged_links(self, adjacency: np.ndarray, threshold: float = 0.25):
        """Observed links whose denoised score fell below ``threshold``.

        These are the candidates for *inconsistent* (spurious) links: the
        low-rank structure refused to support them.
        """
        adjacency = np.asarray(adjacency, dtype=float)
        scores = self.scores
        if adjacency.shape != scores.shape:
            raise OptimizationError(
                f"adjacency shape {adjacency.shape} does not match the "
                f"fitted graph {scores.shape}"
            )
        mask = (adjacency > 0) & (scores < threshold)
        rows, cols = np.nonzero(np.triu(mask, k=1))
        return list(zip(rows.tolist(), cols.tolist()))
