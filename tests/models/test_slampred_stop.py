"""How a SLAMPRED fit stops, path by path.

* The dense path (the default constructor) stops both loops on the
  relative certificate ``‖S_t − S_{t−1}‖₁ / ‖S_t‖₁ ≤ tolerance`` and
  steps at 0.9/L of its loss; it ends well before its iteration cap.
* ``factored=True`` keeps the seed step 0.05.

Each rule is read back from the per-iteration history: an inner loop
ends at the first iteration whose certificate passes, or at its cap.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.base import TransferTask
from repro.models.slampred import SlamPred
from repro.observability.tracer import Tracer
from repro.utils.matrices import l1_norm

TOLERANCE = 1e-3  # the constructor's default


def _task(aligned, split):
    return TransferTask(
        target=aligned.target,
        training_graph=split.training_graph,
        sources=list(aligned.sources),
        anchors=list(aligned.anchors),
        random_state=np.random.default_rng(1234),
    )


def _rounds(history):
    """The history's records grouped by CCCP round, in order."""
    grouped = {}
    for record in history.records:
        grouped.setdefault(record.round, []).append(record)
    return [grouped[key] for key in sorted(grouped)]


def _relative(record):
    return record.update_norm / record.variable_norm


@pytest.fixture(scope="module")
def hot(aligned, split):
    return SlamPred(tracer=Tracer()).fit(_task(aligned, split))


class TestHotPath:
    def test_default_fit_stops_on_its_certificate_before_the_cap(self, hot):
        result = hot.result
        assert result.stop_reason == "converged"
        assert result.converged
        assert result.certificate <= TOLERANCE
        assert result.n_rounds < hot.outer_iterations
        assert result.history.n_iterations < hot.inner_iterations

    def test_inner_loop_stops_at_the_first_relative_pass(self, hot):
        for records in _rounds(hot.result.history):
            certificates = [_relative(record) for record in records]
            assert certificates[-1] <= TOLERANCE
            assert all(c > TOLERANCE for c in certificates[:-1])

    def test_outer_certificate_is_the_relative_round_update(
        self, hot, aligned, split
    ):
        rounds = hot.result.n_rounds
        assert rounds >= 2
        shorter = SlamPred(outer_iterations=rounds - 1).fit(
            _task(aligned, split)
        )
        last = hot.result.solution
        expected = l1_norm(last - shorter.result.solution) / l1_norm(last)
        assert hot.result.certificate == pytest.approx(expected, rel=1e-9)

    def test_steps_at_nine_tenths_of_one_over_l(self, hot):
        report = hot.run_report()
        assert report.meta["step_size"] == pytest.approx(0.45)
        assert report.meta["stop_reason"] == "converged"
        assert report.meta["certificate"] == hot.result.certificate

    def test_dc_objective_never_rises_across_rounds(self, hot):
        (trace,) = hot.tracer.finished()
        objectives = [
            record.objective
            for record in trace.iterations
            if record.objective is not None
        ]
        assert len(objectives) == hot.result.n_rounds
        for before, after in zip(objectives, objectives[1:]):
            assert after <= before + 1e-9 * abs(before)


class TestFactoredPath:
    def test_keeps_the_seed_step(self, aligned, split):
        factored = SlamPred(
            factored=True,
            inner_iterations=3,
            outer_iterations=2,
            tracer=Tracer(),
        ).fit(_task(aligned, split))
        assert factored.step_size is None
        assert factored.run_report().meta["step_size"] == 0.05
