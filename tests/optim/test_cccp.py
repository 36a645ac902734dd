"""Tests for repro.optim.cccp."""

import numpy as np
import pytest

from repro.exceptions import OptimizationError
from repro.optim.cccp import CCCPSolver
from repro.optim.convergence import ConvergenceCriterion
from repro.optim.forward_backward import ForwardBackwardSolver
from repro.optim.losses import SquaredFrobeniusLoss
from repro.optim.proximal import BoxProjection, L1Prox, TraceNormProx


def _solver(target, gradient=None, gamma=0.1, tau=0.1, inner=20, outer=30):
    return CCCPSolver(
        loss=SquaredFrobeniusLoss(target),
        prox_terms=[TraceNormProx(tau), L1Prox(gamma), BoxProjection(0.0, None)],
        intimacy_gradient=gradient,
        inner_solver=ForwardBackwardSolver(
            step_size=0.05,
            criterion=ConvergenceCriterion(tolerance=1e-7, max_iterations=inner),
        ),
        outer_criterion=ConvergenceCriterion(
            tolerance=1e-6, max_iterations=outer
        ),
    )


@pytest.fixture()
def adjacency(rng):
    a = (rng.random((8, 8)) < 0.3).astype(float)
    a = np.triu(a, 1)
    a = a + a.T
    return a


class TestSolve:
    def test_converges(self, adjacency):
        result = _solver(adjacency).solve(adjacency)
        assert result.converged
        assert result.history.update_norms[-1] < 1e-5

    def test_solution_nonnegative(self, adjacency):
        result = _solver(adjacency).solve(adjacency)
        assert result.solution.min() >= 0.0

    def test_update_norms_decay(self, adjacency):
        result = _solver(adjacency).solve(adjacency)
        norms = result.history.update_norms
        assert norms[-1] < norms[0]

    def test_round_norms_recorded(self, adjacency):
        result = _solver(adjacency).solve(adjacency)
        assert len(result.round_norms) == result.n_rounds

    def test_intimacy_gradient_lifts_entries(self, adjacency):
        """Pairs with high intimacy should end with higher scores."""
        gradient = np.zeros_like(adjacency)
        i, j = 0, 7
        adjacency[i, j] = adjacency[j, i] = 0.0
        gradient[i, j] = gradient[j, i] = 1.0
        plain = _solver(adjacency).solve(adjacency).solution
        pulled = _solver(adjacency, gradient).solve(adjacency).solution
        assert pulled[i, j] > plain[i, j]

    def test_gradient_shape_mismatch(self, adjacency):
        solver = _solver(adjacency, np.zeros((3, 3)))
        with pytest.raises(OptimizationError, match="shape"):
            solver.solve(adjacency)

    def test_rejects_rectangular_initial(self, adjacency):
        with pytest.raises(OptimizationError, match="square"):
            _solver(adjacency).solve(np.zeros((2, 3)))

    def test_outer_budget_respected(self, adjacency):
        solver = _solver(adjacency, inner=2, outer=3)
        solver.outer_criterion = ConvergenceCriterion(
            tolerance=1e-15, max_iterations=3
        )
        result = solver.solve(adjacency)
        assert result.n_rounds == 3
        assert not result.converged

    def test_sparsity_regularizer_sparsifies(self, adjacency):
        light = CCCPSolver(
            loss=SquaredFrobeniusLoss(adjacency),
            prox_terms=[L1Prox(0.01), BoxProjection(0.0, None)],
            inner_solver=ForwardBackwardSolver(step_size=0.05),
        ).solve(adjacency)
        heavy = CCCPSolver(
            loss=SquaredFrobeniusLoss(adjacency),
            prox_terms=[L1Prox(1.5), BoxProjection(0.0, None)],
            inner_solver=ForwardBackwardSolver(step_size=0.05),
        ).solve(adjacency)
        assert np.abs(heavy.solution).sum() < np.abs(light.solution).sum()

    def test_trace_regularizer_reduces_rank(self, adjacency):
        from repro.utils.matrices import effective_rank

        light = CCCPSolver(
            loss=SquaredFrobeniusLoss(adjacency),
            prox_terms=[TraceNormProx(0.01)],
            inner_solver=ForwardBackwardSolver(step_size=0.05),
        ).solve(adjacency)
        heavy = CCCPSolver(
            loss=SquaredFrobeniusLoss(adjacency),
            prox_terms=[TraceNormProx(3.0)],
            inner_solver=ForwardBackwardSolver(step_size=0.05),
        ).solve(adjacency)
        assert effective_rank(heavy.solution, tol=1e-6) <= effective_rank(
            light.solution, tol=1e-6
        )

    def test_deterministic(self, adjacency):
        a = _solver(adjacency).solve(adjacency).solution
        b = _solver(adjacency).solve(adjacency).solution
        assert np.array_equal(a, b)


class TestObjectiveMonotonicity:
    def test_objective_decreases_across_rounds(self, adjacency):
        """CCCP theory (Sriperumbudur & Lanckriet): the objective u − v is
        non-increasing along the iterate sequence."""
        gradient = np.abs(adjacency @ adjacency)
        peak = gradient.max()
        if peak > 0:
            gradient = gradient / peak
        loss = SquaredFrobeniusLoss(adjacency)
        prox = [TraceNormProx(0.5), L1Prox(0.05), BoxProjection(0.0, None)]
        solver = CCCPSolver(
            loss=loss,
            prox_terms=prox,
            intimacy_gradient=gradient,
            inner_solver=ForwardBackwardSolver(
                step_size=0.05,
                criterion=ConvergenceCriterion(tolerance=1e-9, max_iterations=40),
            ),
            outer_criterion=ConvergenceCriterion(
                tolerance=1e-7, max_iterations=20
            ),
        )

        def objective(matrix):
            value = loss.value(matrix)
            value += sum(term.value(matrix) for term in prox)
            value -= float((gradient * matrix).sum())  # v(S) = <S, G>
            return value

        # Re-run manually to capture per-round iterates.
        current = adjacency.copy()
        values = [objective(current)]
        from repro.optim.losses import LinearizedIntimacyTerm

        smooth = [loss, LinearizedIntimacyTerm(gradient)]
        for _ in range(8):
            current = solver.inner_solver.solve(current, smooth, prox)
            values.append(objective(current))
        for before, after in zip(values, values[1:]):
            assert after <= before + 1e-6


class TestPerRoundObjective:
    def test_traced_fit_evaluates_objective_once_per_round(
        self, aligned, split, monkeypatch
    ):
        """A live tracer adds one objective evaluation per CCCP round."""
        from repro.models.base import TransferTask
        from repro.models.slampred import SlamPred
        from repro.observability.tracer import Tracer

        calls = []
        original = TraceNormProx.value

        def counting(self, matrix):
            calls.append(matrix.shape)
            return original(self, matrix)

        monkeypatch.setattr(TraceNormProx, "value", counting)

        def fit(tracer):
            task = TransferTask(
                target=aligned.target,
                training_graph=split.training_graph,
                sources=list(aligned.sources),
                anchors=list(aligned.anchors),
                random_state=np.random.default_rng(3),
            )
            # The seed step keeps every round short of the certificate,
            # so the fit runs all three rounds.
            model = SlamPred(
                inner_iterations=4,
                outer_iterations=3,
                step_size=0.05,
                tracer=tracer,
            )
            return model.fit(task)

        fit(None)
        assert calls == []
        model = fit(Tracer())
        assert model.result.n_rounds == 3
        assert len(calls) == model.result.n_rounds
        assert len(model.result.history.objective_values) == 3
