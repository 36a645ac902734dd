"""Golden regression: the Figure 3 convergence run must match the archive.

``results/run.figure3.json`` is the archived objective trajectory of the
seed implementation.  Replaying the experiment and asserting the series
match (within floating-point tolerance) pins the solver numerics, so
telemetry instrumentation or solver refactors cannot silently change what
the optimizer computes.  If a change is *intended* to alter numerics,
regenerate the archive with ``python -m repro.experiments figure3 --json
results/run.figure3.json`` and call the change out in review.
"""

import json
import os

import numpy as np
import pytest

from repro.experiments.figure3 import run_figure3
from repro.observability.tracer import Tracer

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "..", "..", "results", "run.figure3.json"
)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def replay():
    """One traced replay shared by every assertion in the module."""
    tracer = Tracer()
    result = run_figure3(tracer=tracer)
    (trace,) = tracer.finished()
    return result, (trace, tracer)


class TestGoldenFigure3:
    def test_iteration_counts_match(self, golden, replay):
        result, _ = replay
        assert result["n_iterations"] == golden["n_iterations"]
        assert result["n_rounds"] == golden["n_rounds"]
        assert result["converged"] == golden["converged"]

    def test_variable_norm_trajectory_matches(self, golden, replay):
        result, _ = replay
        assert np.allclose(
            result["variable_norms"],
            golden["variable_norms"],
            rtol=1e-4,
            atol=1e-6,
        )

    def test_update_norm_trajectory_matches(self, golden, replay):
        result, _ = replay
        assert np.allclose(
            result["update_norms"],
            golden["update_norms"],
            rtol=1e-4,
            atol=1e-6,
        )

    def test_telemetry_covers_every_iteration(self, golden, replay):
        """The tracer sees exactly the iterations the history records."""
        result, (trace, tracer) = replay
        assert len(trace.iterations) == golden["n_iterations"]
        assert tracer.counters["cccp.rounds"] == golden["n_rounds"]
        # Each round's objective breakdown sits on its last record only.
        rounds = [record.round for record in trace.iterations]
        assert rounds == sorted(rounds)
        assert set(rounds) == set(range(1, golden["n_rounds"] + 1))
        for index, record in enumerate(trace.iterations):
            last_of_round = (
                index + 1 == len(trace.iterations)
                or trace.iterations[index + 1].round != record.round
            )
            assert bool(record.objective_terms) == last_of_round

    def test_objective_never_rises_across_rounds(self, golden, replay):
        """CCCP's DC objective is non-increasing from round to round."""
        _, (trace, _) = replay
        objectives = [
            record.objective
            for record in trace.iterations
            if record.objective is not None
        ]
        assert len(objectives) == golden["n_rounds"]
        for before, after in zip(objectives, objectives[1:]):
            assert after <= before + 1e-9 * abs(before)


def test_traced_and_untraced_histories_bit_equal(replay):
    """Attaching a tracer changes no norm of the Figure 3 series."""
    traced, _ = replay
    untraced = run_figure3()
    assert untraced["variable_norms"] == traced["variable_norms"]
    assert untraced["update_norms"] == traced["update_norms"]
