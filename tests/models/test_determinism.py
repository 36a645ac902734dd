"""Determinism guarantees of ``SlamPred.fit``.

Two runs from the same seed must be bit-identical, and attaching a tracer
(live or null) must not perturb a single bit of the solution — telemetry
observes the solver, it never participates in it.
"""

import numpy as np
import pytest

from repro.models.base import TransferTask
from repro.models.slampred import SlamPred
from repro.observability.tracer import NullTracer, Tracer


@pytest.fixture(scope="module")
def fit_inputs(aligned, split):
    """Frozen ingredients for building identical tasks on demand."""

    def make_task():
        return TransferTask(
            target=aligned.target,
            training_graph=split.training_graph,
            sources=list(aligned.sources),
            anchors=list(aligned.anchors),
            random_state=np.random.default_rng(99),
        )

    return make_task


def _fit(make_task, tracer=None, svd_rank=None):
    model = SlamPred(
        inner_iterations=6,
        outer_iterations=4,
        svd_rank=svd_rank,
        tracer=tracer,
    )
    model.fit(make_task())
    return model


class TestSeedDeterminism:
    def test_same_seed_bit_identical(self, fit_inputs):
        first = _fit(fit_inputs)
        second = _fit(fit_inputs)
        assert np.array_equal(first.score_matrix, second.score_matrix)
        assert np.array_equal(
            first.result.solution, second.result.solution
        )

    def test_same_seed_identical_telemetry(self, fit_inputs):
        first = _fit(fit_inputs, tracer=Tracer())
        second = _fit(fit_inputs, tracer=Tracer())
        assert len(first.tracer.finished()[-1].iterations) == len(
            second.tracer.finished()[-1].iterations
        )
        assert first.tracer.counters == second.tracer.counters
        assert np.array_equal(first.score_matrix, second.score_matrix)

    def test_truncated_svd_path_deterministic(self, fit_inputs):
        """The Lanczos SVT starts from a fixed vector, so it replays too."""
        first = _fit(fit_inputs, svd_rank=25)
        second = _fit(fit_inputs, svd_rank=25)
        assert np.array_equal(first.score_matrix, second.score_matrix)


class TestTracerTransparency:
    def test_live_tracer_does_not_change_solution(self, fit_inputs):
        untraced = _fit(fit_inputs)
        traced = _fit(fit_inputs, tracer=Tracer())
        assert np.array_equal(untraced.score_matrix, traced.score_matrix)
        # The one solver loop: the Figure 3 norms match bit for bit.
        mine, theirs = traced.result.history, untraced.result.history
        assert mine.update_norms == theirs.update_norms
        assert mine.variable_norms == theirs.variable_norms

    def test_null_tracer_does_not_change_solution(self, fit_inputs):
        untraced = _fit(fit_inputs)
        nulled = _fit(fit_inputs, tracer=NullTracer())
        assert np.array_equal(untraced.score_matrix, nulled.score_matrix)

    def test_tracer_and_history_share_iteration_records(self, fit_inputs):
        traced = _fit(fit_inputs, tracer=Tracer())
        history = traced.result.history
        records = traced.tracer.finished()[-1].iterations
        assert len(records) == history.n_iterations
        assert all(
            mine is theirs for mine, theirs in zip(records, history.records)
        )
