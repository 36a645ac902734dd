"""Tests for repro.optim.convergence."""

import numpy as np
import pytest

from repro.optim.convergence import ConvergenceCriterion, IterationHistory


class TestCriterion:
    def test_satisfied(self):
        criterion = ConvergenceCriterion(tolerance=0.1)
        a = np.zeros((2, 2))
        b = np.full((2, 2), 0.01)
        assert criterion.satisfied(a, b)

    def test_not_satisfied(self):
        criterion = ConvergenceCriterion(tolerance=0.01)
        a = np.zeros((2, 2))
        b = np.full((2, 2), 0.1)
        assert not criterion.satisfied(a, b)

    def test_invalid_tolerance(self):
        with pytest.raises(Exception):
            ConvergenceCriterion(tolerance=0.0)

    def test_invalid_max_iterations(self):
        with pytest.raises(Exception):
            ConvergenceCriterion(max_iterations=0)

    def test_frozen(self):
        criterion = ConvergenceCriterion()
        with pytest.raises(Exception):
            criterion.tolerance = 1.0


class TestRelativeCriterion:
    def test_certificate_is_update_over_norm(self):
        criterion = ConvergenceCriterion(tolerance=1e-3, relative=True)
        assert criterion.certificate(2.0, 4000.0) == 5e-4
        assert criterion.satisfied_value(2.0, 4000.0)
        assert criterion.satisfied_value(4.0, 4000.0)  # r == tolerance
        assert not criterion.satisfied_value(4.1, 4000.0)

    def test_scale_free(self):
        """The same relative update passes at any scale of the iterate."""
        criterion = ConvergenceCriterion(tolerance=1e-3, relative=True)
        a = np.full((3, 3), 1000.0)
        b = np.full((3, 3), 1000.5)
        assert criterion.satisfied(b, a)
        assert not ConvergenceCriterion(tolerance=1e-3).satisfied(b, a)

    def test_zero_iterate(self):
        criterion = ConvergenceCriterion(tolerance=1e-3, relative=True)
        assert criterion.certificate(0.0, 0.0) == 0.0
        assert criterion.certificate(1.0, 0.0) == float("inf")

    def test_absolute_certificate_ignores_the_norm(self):
        criterion = ConvergenceCriterion(tolerance=1e-3)
        assert criterion.certificate(5e-4, 1e9) == 5e-4
        assert criterion.satisfied_value(5e-4)

    def test_relative_needs_the_norm(self):
        with pytest.raises(ValueError, match="norm"):
            ConvergenceCriterion(relative=True).certificate(1.0)


class TestHistory:
    def test_record(self):
        history = IterationHistory()
        record = history.record_norms(4.0, 2.5)
        assert history.records == [record]
        assert history.variable_norms == [4.0]
        assert history.update_norms == [2.5]
        assert history.objective_values == []

    def test_record_with_objective(self):
        """The CCCP driver writes a round's objective onto its last record."""
        history = IterationHistory()
        history.record_norms(4.0, 1.0)
        history.record_norms(4.0, 0.0).objective = 3.5
        assert history.objective_values == [3.5]
        assert history.update_norms == [1.0, 0.0]

    def test_n_iterations(self):
        history = IterationHistory()
        for _ in range(3):
            history.record_norms(0.0, 0.0)
        assert history.n_iterations == 3
        assert [r.iteration for r in history.records] == [0, 1, 2]

    def test_extend(self):
        a = IterationHistory([1.0], [0.1], [5.0])
        b = IterationHistory([2.0], [0.2], [])
        a.extend(b)
        assert a.variable_norms == [1.0, 2.0]
        assert a.update_norms == [0.1, 0.2]
        assert a.objective_values == [5.0]
