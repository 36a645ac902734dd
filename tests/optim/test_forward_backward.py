"""Tests for repro.optim.forward_backward.

The solvers are checked against problems with known closed-form solutions:

* pure quadratic → converges to the target;
* quadratic + ℓ1 → soft-thresholded target (the lasso prox identity);
* quadratic + box → clipped target.
"""

import tracemalloc

import numpy as np
import pytest

from repro.exceptions import OptimizationError
from repro.optim.convergence import ConvergenceCriterion, IterationHistory
from repro.optim.forward_backward import (
    ForwardBackwardSolver,
    GeneralizedForwardBackward,
)
from repro.optim.losses import SquaredFrobeniusLoss
from repro.optim.proximal import BoxProjection, L1Prox, TraceNormProx

TIGHT = ConvergenceCriterion(tolerance=1e-10, max_iterations=5000)


@pytest.fixture(params=[ForwardBackwardSolver, GeneralizedForwardBackward])
def solver_cls(request):
    return request.param


class TestKnownSolutions:
    def test_pure_quadratic(self, rng):
        target = rng.random((4, 4))
        solver = ForwardBackwardSolver(step_size=0.2, criterion=TIGHT)
        out = solver.solve(np.zeros((4, 4)), [SquaredFrobeniusLoss(target)], [])
        assert np.allclose(out, target, atol=1e-6)

    def test_lasso_identity(self, solver_cls, rng):
        """argmin ‖S−A‖² + γ‖S‖₁ = soft_threshold(A, γ/2)."""
        target = rng.normal(size=(4, 4))
        gamma = 0.6
        solver = solver_cls(step_size=0.1, criterion=TIGHT)
        out = solver.solve(
            np.zeros((4, 4)),
            [SquaredFrobeniusLoss(target)],
            [L1Prox(gamma)],
        )
        expected = np.sign(target) * np.maximum(np.abs(target) - gamma / 2, 0)
        assert np.allclose(out, expected, atol=1e-5)

    def test_box_constrained_quadratic(self, solver_cls, rng):
        target = rng.normal(size=(4, 4)) * 2
        solver = solver_cls(step_size=0.1, criterion=TIGHT)
        out = solver.solve(
            np.zeros((4, 4)),
            [SquaredFrobeniusLoss(target)],
            [BoxProjection(0.0, 1.0)],
        )
        assert np.allclose(out, np.clip(target, 0, 1), atol=1e-5)

    def test_svt_identity(self, solver_cls, rng):
        """argmin ‖S−A‖² + τ‖S‖* = SVT(A, τ/2)."""
        target = rng.normal(size=(5, 5))
        tau = 1.0
        solver = solver_cls(step_size=0.05, criterion=TIGHT)
        out = solver.solve(
            np.zeros((5, 5)),
            [SquaredFrobeniusLoss(target)],
            [TraceNormProx(tau)],
        )
        u, s, vt = np.linalg.svd(target, full_matrices=False)
        expected = (u * np.maximum(s - tau / 2, 0)) @ vt
        assert np.allclose(out, expected, atol=1e-4)


class TestBehaviour:
    def test_history_recorded(self, rng):
        target = rng.random((3, 3))
        history = IterationHistory()
        solver = ForwardBackwardSolver(
            step_size=0.1,
            criterion=ConvergenceCriterion(tolerance=1e-8, max_iterations=50),
        )
        solver.solve(np.zeros((3, 3)), [SquaredFrobeniusLoss(target)], [], history)
        assert history.n_iterations > 0
        assert history.update_norms[-1] < history.update_norms[0]

    def test_objective_recording(self, rng):
        """A traced CCCP run records the objective once per round.

        The value sits on each round's last record, is broken out per
        term, and never rises from one round to the next.
        """
        from repro.observability.tracer import Tracer
        from repro.optim.cccp import CCCPSolver

        target = rng.random((6, 6))
        solver = CCCPSolver(
            loss=SquaredFrobeniusLoss(target),
            prox_terms=[L1Prox(0.1), BoxProjection(0.0, None)],
            intimacy_gradient=rng.random((6, 6)) * 0.1,
            inner_solver=ForwardBackwardSolver(
                step_size=0.1,
                criterion=ConvergenceCriterion(
                    tolerance=1e-8, max_iterations=5
                ),
            ),
            outer_criterion=ConvergenceCriterion(
                tolerance=1e-8, max_iterations=4
            ),
        )
        result = solver.solve(np.zeros((6, 6)), tracer=Tracer())
        history = result.history
        assert len(history.objective_values) == result.n_rounds == 4
        for round_index in range(1, result.n_rounds + 1):
            records = [r for r in history.records if r.round == round_index]
            assert [r.objective is not None for r in records] == (
                [False] * (len(records) - 1) + [True]
            )
            last = records[-1]
            assert set(last.objective_terms) == {
                "SquaredFrobeniusLoss",
                "LinearizedIntimacyTerm",
                "L1Prox",
                "BoxProjection",
            }
            assert last.objective == pytest.approx(
                sum(last.objective_terms.values())
            )
        objectives = history.objective_values
        assert all(b <= a for a, b in zip(objectives, objectives[1:]))

    def test_max_iterations_respected(self, rng):
        target = rng.random((3, 3))
        history = IterationHistory()
        solver = ForwardBackwardSolver(
            step_size=1e-4,
            criterion=ConvergenceCriterion(tolerance=1e-12, max_iterations=7),
        )
        solver.solve(np.zeros((3, 3)), [SquaredFrobeniusLoss(target)], [], history)
        assert history.n_iterations == 7

    def test_no_terms_rejected(self):
        solver = ForwardBackwardSolver()
        with pytest.raises(OptimizationError):
            solver.solve(np.zeros((2, 2)), [], [])

    def test_gfb_requires_prox(self):
        solver = GeneralizedForwardBackward()
        with pytest.raises(OptimizationError, match="prox"):
            solver.solve(np.zeros((2, 2)), [SquaredFrobeniusLoss(np.zeros((2, 2)))], [])

    def test_solvers_agree_on_composite(self, rng):
        """Sequential and generalized FB should reach the same optimum."""
        target = rng.normal(size=(4, 4))
        terms = lambda: (
            [SquaredFrobeniusLoss(target)],
            [L1Prox(0.3), BoxProjection(0.0, None)],
        )
        a = ForwardBackwardSolver(step_size=0.02, criterion=TIGHT).solve(
            np.zeros((4, 4)), *terms()
        )
        b = GeneralizedForwardBackward(step_size=0.02, criterion=TIGHT).solve(
            np.zeros((4, 4)), *terms()
        )
        assert np.allclose(a, b, atol=1e-3)

    def test_initial_not_mutated(self, rng):
        initial = np.zeros((3, 3))
        ForwardBackwardSolver(step_size=0.1).solve(
            initial, [SquaredFrobeniusLoss(rng.random((3, 3)))], []
        )
        assert not initial.any()


class TestSteadyStateAllocations:
    def test_l1_box_solve_allocates_no_per_iteration_temporary(self, rng):
        """Past the workspace, a solve holds at most one n×n array at once.

        The initial copy and the returned copy are the only full-size
        arrays a solve allocates; a divergence check or a norm that
        allocated one per iteration would overlap the initial copy.
        """
        target = (rng.random((200, 200)) < 0.1).astype(float)
        smooth = [SquaredFrobeniusLoss(target)]
        prox = [L1Prox(0.05), BoxProjection(0.0, None)]
        solver = ForwardBackwardSolver(
            step_size=0.45,
            criterion=ConvergenceCriterion(
                tolerance=1e-12, max_iterations=20, relative=True
            ),
        )
        solver.solve(target, smooth, prox)  # sizes the workspace
        tracemalloc.start()
        try:
            solver.solve(target, smooth, prox, history=IterationHistory())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * target.nbytes
