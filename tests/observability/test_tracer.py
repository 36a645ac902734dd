"""Unit tests for the tracer: spans, counters, metrics, null behaviour."""

import numpy as np
import pytest

from repro.observability.records import IterationRecord
from repro.observability.tracer import NullTracer, Tracer, is_tracing


class TestSpans:
    def test_nesting(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner-a"):
                pass
            with tracer.span("inner-b"):
                pass
        assert [s.name for s in tracer.iter_spans()] == [
            "outer",
            "inner-a",
            "inner-b",
        ]
        assert [c.name for c in tracer.roots[0].children] == [
            "inner-a",
            "inner-b",
        ]

    def test_durations_nonnegative_and_enclosing(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(1000))
        outer, inner = tracer.roots[0], tracer.roots[0].children[0]
        assert inner.duration >= 0.0
        assert outer.duration >= inner.duration

    def test_siblings_at_root(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [root.name for root in tracer.roots] == ["first", "second"]

    def test_stack_unwinds_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                raise RuntimeError("boom")
        assert tracer._stack == []
        assert tracer.roots[0].duration >= 0.0

    def test_phase_totals_aggregate_by_name(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("prox"):
                pass
        totals = tracer.phase_totals()
        assert totals["prox"]["count"] == 3
        assert totals["prox"]["seconds"] >= 0.0

    def test_span_to_dict(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        payload = tracer.roots[0].to_dict()
        assert payload["name"] == "outer"
        assert payload["children"][0]["name"] == "inner"
        assert "children" not in payload["children"][0]


class TestCountersAndMetrics:
    def test_counters_accumulate(self):
        tracer = Tracer()
        tracer.count("steps")
        tracer.count("steps", 2)
        assert tracer.counters == {"steps": 3}

    def test_metric_streams(self):
        tracer = Tracer()
        tracer.metric("rank", 5)
        tracer.metric("rank", 4)
        assert tracer.metrics["rank"] == [5.0, 4.0]
        assert tracer.last_metric("rank") == 4.0
        assert tracer.last_metric("missing") is None
        assert tracer.last_metric("missing", -1) == -1

    def test_record_iteration_shares_object(self):
        tracer = Tracer()
        record = IterationRecord(
            iteration=0, variable_norm=1.0, update_norm=0.5
        )
        tracer.record_iteration(record)
        assert tracer.iterations[0] is record


class TestNullTracer:
    def test_disabled_flag(self):
        assert is_tracing(Tracer())
        assert not is_tracing(NullTracer())
        assert not is_tracing(None)

    def test_everything_is_a_noop(self):
        tracer = NullTracer()
        with tracer.span("ignored"):
            tracer.count("ignored")
            tracer.metric("ignored", 1.0)
            tracer.record_iteration(
                IterationRecord(iteration=0, variable_norm=0.0, update_norm=0.0)
            )
        assert tracer.roots == []
        assert tracer.counters == {}
        assert tracer.metrics == {}
        assert tracer.iterations == []

    def test_span_object_is_reused(self):
        tracer = NullTracer()
        assert tracer.span("a") is tracer.span("b")


class TestSolverIntegration:
    def test_forward_backward_records_phases(self):
        from repro.optim.convergence import ConvergenceCriterion, IterationHistory
        from repro.optim.forward_backward import ForwardBackwardSolver
        from repro.optim.losses import SquaredFrobeniusLoss
        from repro.optim.proximal import L1Prox, TraceNormProx

        rng = np.random.default_rng(0)
        target = rng.random((8, 8))
        solver = ForwardBackwardSolver(
            step_size=0.1,
            criterion=ConvergenceCriterion(tolerance=1e-8, max_iterations=5),
        )
        tracer = Tracer()
        history = IterationHistory()
        solver.solve(
            np.zeros((8, 8)),
            [SquaredFrobeniusLoss(target)],
            [TraceNormProx(0.1), L1Prox(0.05)],
            history=history,
            tracer=tracer,
        )
        assert tracer.counters["fb.iterations"] == 5
        assert history.n_iterations == 5
        totals = tracer.phase_totals()
        for phase in ("gradient", "prox:TraceNormProx", "prox:L1Prox"):
            assert totals[phase]["count"] == 5
        # One SVT per iteration, nested under its prox span.
        assert totals["svt"]["count"] == 5
        assert all(
            [child.name for child in span.children] == ["svt"]
            for span in tracer.iter_spans()
            if span.name == "prox:TraceNormProx"
        )
        ranks = tracer.metrics["svt.retained_rank"]
        assert len(ranks) == 5 and all(1 <= rank <= 8 for rank in ranks)
        assert tracer.metrics["svt.threshold"] == [pytest.approx(0.1 * 0.1)] * 5
        # The inner solver evaluates no objective; records stay lean.
        assert history.objective_values == []

    def test_untraced_solve_keeps_lean_records(self):
        from repro.optim.convergence import ConvergenceCriterion, IterationHistory
        from repro.optim.forward_backward import ForwardBackwardSolver
        from repro.optim.losses import SquaredFrobeniusLoss
        from repro.optim.proximal import L1Prox

        rng = np.random.default_rng(0)
        target = rng.random((6, 6))
        solver = ForwardBackwardSolver(
            step_size=0.1,
            criterion=ConvergenceCriterion(tolerance=1e-8, max_iterations=3),
        )
        history = IterationHistory()
        solver.solve(
            np.zeros((6, 6)),
            [SquaredFrobeniusLoss(target)],
            [L1Prox(0.05)],
            history=history,
        )
        record = history.records[0]
        assert record.objective is None
        assert record.objective_terms == {}
