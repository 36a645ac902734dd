"""Tests for solver-side recovery: SVD fallbacks, step halving, resume."""

import numpy as np
import pytest

from repro.exceptions import (
    ConfigurationError,
    OptimizationError,
    TruncatedSVTWarning,
)
from repro.models.slampred import SlamPredH
from repro.observability.tracer import Tracer
from repro.optim.convergence import ConvergenceCriterion
from repro.optim.forward_backward import ForwardBackwardSolver
from repro.optim.losses import SquaredFrobeniusLoss
from repro.optim.proximal import (
    singular_value_threshold,
    truncated_singular_value_threshold,
)
from repro.reliability.faults import GLOBAL_INJECTOR


@pytest.fixture()
def matrix(rng):
    base = rng.normal(size=(20, 20))
    return (base + base.T) / 2.0


class TestSvdFallbacks:
    def test_truncated_fault_falls_back_to_dense(self, matrix):
        exact = singular_value_threshold(matrix, 0.5)
        GLOBAL_INJECTOR.arm("solver.svd.truncated", times=1)
        tracer = Tracer()
        with pytest.warns(TruncatedSVTWarning, match="falling back"):
            recovered = truncated_singular_value_threshold(
                matrix, 0.5, rank=5, tracer=tracer
            )
        np.testing.assert_allclose(recovered, exact, atol=1e-10)
        assert tracer.counters["svt.dense_fallbacks"] == 1

    def test_dense_fault_falls_back_to_eigh(self, matrix):
        exact = singular_value_threshold(matrix, 0.5)
        GLOBAL_INJECTOR.arm("solver.svd.dense", times=1)
        tracer = Tracer()
        recovered = singular_value_threshold(matrix, 0.5, tracer=tracer)
        np.testing.assert_allclose(recovered, exact, atol=1e-8)
        assert tracer.counters["svt.eigh_fallbacks"] == 1

    def test_fallback_counters_bridge_to_registry(self, matrix):
        from repro.observability.metrics import MetricsRegistry

        registry = MetricsRegistry()
        tracer = Tracer(registry)
        GLOBAL_INJECTOR.arm("solver.svd.dense", times=1)
        singular_value_threshold(matrix, 0.5, tracer=tracer)
        tracer.drain()
        assert "reliability_svd_fallbacks_total 1" in registry.render()

    def test_fit_completes_despite_svd_faults(self, task):
        """A fit survives injected SVD failures at both fault sites."""
        GLOBAL_INJECTOR.arm("solver.svd.truncated", times=2)
        GLOBAL_INJECTOR.arm("solver.svd.dense", times=2)
        with pytest.warns(TruncatedSVTWarning):
            model = SlamPredH(
                svd_rank=10, inner_iterations=5, outer_iterations=3
            ).fit(task)
        assert np.all(np.isfinite(model.score_matrix))
        assert GLOBAL_INJECTOR.fired_counts()["solver.svd.truncated"] == 2


class TestStepHalving:
    def test_divergent_step_recovers_by_halving(self, rng):
        target = (rng.random((12, 12)) < 0.3).astype(float)
        solver = ForwardBackwardSolver(
            step_size=1.8,  # factor |1 - 2*1.8| = 2.6: diverges unhalved
            criterion=ConvergenceCriterion(
                tolerance=1e-10, max_iterations=500
            ),
            max_step_halvings=3,
        )
        tracer = Tracer()
        result = solver.solve(
            np.zeros_like(target),
            [SquaredFrobeniusLoss(target)],
            [],
            tracer=tracer,
        )
        np.testing.assert_allclose(result, target, atol=1e-4)
        assert tracer.counters["fb.step_halvings"] >= 1
        assert solver.step_size == 1.8  # the configured step is untouched

    def test_budget_exhaustion_still_fails_loudly(self, rng):
        target = (rng.random((8, 8)) < 0.3).astype(float)
        solver = ForwardBackwardSolver(
            step_size=1e9,  # even 3 halvings cannot save this
            criterion=ConvergenceCriterion(max_iterations=500),
            max_step_halvings=3,
        )
        with pytest.raises(OptimizationError, match="diverged"):
            solver.solve(
                np.zeros_like(target), [SquaredFrobeniusLoss(target)], []
            )

    def test_zero_budget_restores_fail_fast(self, rng):
        target = (rng.random((8, 8)) < 0.3).astype(float)
        solver = ForwardBackwardSolver(
            step_size=1.8,
            criterion=ConvergenceCriterion(max_iterations=500),
            max_step_halvings=0,
        )
        with pytest.raises(OptimizationError, match="diverged"):
            solver.solve(
                np.zeros_like(target), [SquaredFrobeniusLoss(target)], []
            )


class TestCheckpointedFit:
    def test_fit_writes_checkpoints(self, task, tmp_path):
        directory = str(tmp_path / "ckpt")
        model = SlamPredH(inner_iterations=4, outer_iterations=3)
        model.fit(task, checkpoint_dir=directory)
        from repro.reliability.checkpoints import CheckpointManager

        rounds = CheckpointManager(directory).rounds()
        assert rounds  # at least one round checkpointed
        assert model.result.resumed_from is None

    def test_resume_requires_a_checkpoint(self, task, tmp_path):
        with pytest.raises(ConfigurationError, match="no resumable"):
            SlamPredH(inner_iterations=4, outer_iterations=3).resume(
                task, str(tmp_path / "empty")
            )

    def test_resumed_fit_matches_uninterrupted(self, task, tmp_path):
        """Kill after 2 rounds; resume must land on the same trajectory."""
        directory = str(tmp_path / "ckpt")
        config = dict(inner_iterations=4, outer_iterations=6)
        full = SlamPredH(**config).fit(task)
        # "Kill" the run at round 2 by bounding the outer loop, keeping
        # only what a killed process would have: the on-disk checkpoints.
        SlamPredH(inner_iterations=4, outer_iterations=2).fit(
            task, checkpoint_dir=directory
        )
        resumed = SlamPredH(**config).resume(task, directory)
        assert resumed.result.resumed_from == 2
        np.testing.assert_allclose(
            resumed.score_matrix, full.score_matrix, atol=1e-8
        )
        assert resumed.result.n_rounds == full.result.n_rounds
