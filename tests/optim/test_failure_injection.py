"""Failure-injection tests for the optimization stack.

Production solvers must fail loudly and informatively, not return garbage:
divergent step sizes, NaN inputs and absurd configurations all raise
:class:`~repro.exceptions.OptimizationError` with actionable messages.
"""

import numpy as np
import pytest

from repro.exceptions import OptimizationError
from repro.optim.cccp import CCCPSolver
from repro.optim.convergence import ConvergenceCriterion
from repro.optim.forward_backward import (
    ForwardBackwardSolver,
    GeneralizedForwardBackward,
)
from repro.optim.losses import SquaredFrobeniusLoss
from repro.optim.proximal import BoxProjection, L1Prox


class _ExplodingLoss:
    """A smooth term whose gradient amplifies the iterate (L >> 2/θ)."""

    def __init__(self, factor: float = 1e6):
        self.factor = factor

    def value(self, matrix):
        return self.factor * float(np.sum(matrix**2))

    def gradient(self, matrix, out=None):
        return np.multiply(2 * self.factor, matrix, out=out)


class TestDivergenceGuard:
    def test_forward_backward_detects_divergence(self, rng):
        solver = ForwardBackwardSolver(
            step_size=1.0,
            criterion=ConvergenceCriterion(tolerance=1e-12, max_iterations=500),
        )
        with pytest.raises(OptimizationError, match="diverged"):
            solver.solve(rng.random((4, 4)) + 1.0, [_ExplodingLoss()], [])

    def test_gfb_detects_divergence(self, rng):
        solver = GeneralizedForwardBackward(
            step_size=1.0,
            criterion=ConvergenceCriterion(tolerance=1e-12, max_iterations=500),
        )
        with pytest.raises(OptimizationError, match="diverged"):
            solver.solve(
                rng.random((4, 4)) + 1.0,
                [_ExplodingLoss()],
                [L1Prox(0.0)],
            )

    def test_message_names_step_size(self, rng):
        solver = ForwardBackwardSolver(step_size=1.0)
        with pytest.raises(OptimizationError, match="step_size"):
            solver.solve(np.ones((3, 3)), [_ExplodingLoss()], [])

    def test_nan_input_detected(self):
        target = np.zeros((3, 3))
        start = np.zeros((3, 3))
        start[0, 0] = np.nan
        solver = ForwardBackwardSolver(step_size=0.1)
        with pytest.raises(OptimizationError, match="diverged"):
            solver.solve(start, [SquaredFrobeniusLoss(target)], [])

    def test_stable_problem_unaffected(self, rng):
        """The guard must not fire on well-conditioned problems."""
        target = rng.random((4, 4))
        solver = ForwardBackwardSolver(step_size=0.2)
        out = solver.solve(np.zeros((4, 4)), [SquaredFrobeniusLoss(target)], [])
        assert np.isfinite(out).all()


class TestCCCPFailures:
    def test_divergent_inner_solver_propagates(self, rng):
        solver = CCCPSolver(
            loss=_ExplodingLoss(),
            prox_terms=[BoxProjection(-1e20, None)],
            inner_solver=ForwardBackwardSolver(step_size=1.0),
        )
        with pytest.raises(OptimizationError, match="diverged"):
            solver.solve(rng.random((3, 3)) + 1.0)
