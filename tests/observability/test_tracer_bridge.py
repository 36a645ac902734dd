"""Tracer → MetricsRegistry bridge: solver events as scrapeable series."""

from __future__ import annotations

import numpy as np
import pytest

from repro.observability.metrics import MetricsRegistry, NullRegistry
from repro.observability.records import IterationRecord
from repro.observability.tracer import NullTracer, Tracer


@pytest.fixture()
def registry():
    return MetricsRegistry()


@pytest.fixture()
def tracer(registry):
    return Tracer(registry=registry)


class TestSpanBridge:
    def test_svt_span_lands_in_solver_svt_seconds(self, tracer, registry):
        with tracer.span("svt"):
            pass
        family = registry.get("solver.svt_seconds")
        assert family is not None
        assert family.snapshot()["count"] == 1

    def test_unmapped_span_stays_tracer_only(self, tracer, registry):
        with tracer.trace("fit") as trace:
            with tracer.span("prox:TraceNormProx"):
                pass
        assert registry.get("prox:TraceNormProx") is None
        assert "prox:TraceNormProx" in trace.phase_totals()

    def test_nested_spans_each_bridge(self, tracer, registry):
        with tracer.span("cccp_round"):
            with tracer.span("gradient"):
                pass
            with tracer.span("svt"):
                pass
        assert registry.get("solver.cccp_round_seconds").snapshot()["count"] == 1
        assert registry.get("solver.gradient_seconds").snapshot()["count"] == 1
        assert registry.get("solver.svt_seconds").snapshot()["count"] == 1


class TestCounterAndGaugeBridge:
    def test_mapped_counter_published(self, tracer, registry):
        tracer.count("cccp.rounds", 3)
        tracer.drain()
        assert registry.get("solver.cccp_rounds").value == 3
        assert tracer.counters["cccp.rounds"] == 3

    def test_counters_sharing_a_series_sum(self, tracer, registry):
        # Both SVD recovery paths roll up into one degradation series.
        tracer.count("svt.dense_fallbacks", 2)
        tracer.count("svt.eigh_fallbacks")
        tracer.drain()
        assert registry.get("reliability.svd_fallbacks").value == 3

    def test_unmapped_counter_stays_tracer_only(self, tracer, registry):
        tracer.count("serve.topk_requests")
        tracer.drain()
        assert registry.get("serve.topk_requests") is None

    def test_mapped_metric_sets_gauge_to_latest(self, tracer, registry):
        with tracer.trace("fit") as trace:
            tracer.metric("svt.retained_rank", 40)
            tracer.metric("svt.retained_rank", 28)
        assert registry.get("solver.rank").value == 28
        assert trace.metrics["svt.retained_rank"] == [40.0, 28.0]


def _record(iteration, objective):
    return IterationRecord(
        iteration=iteration,
        variable_norm=1.0,
        update_norm=0.1,
        objective=objective,
    )


class TestIterationBridge:
    def test_record_iteration_counts_and_tracks_objective(
        self, tracer, registry
    ):
        tracer.record_iteration(_record(0, 12.5))
        tracer.record_iteration(_record(1, 11.0))
        assert registry.get("solver.iterations").value == 2
        assert registry.get("solver.objective").value == 11.0

    def test_objective_none_leaves_gauge_untouched(self, tracer, registry):
        tracer.record_iteration(_record(0, None))
        assert registry.get("solver.iterations").value == 1
        assert registry.get("solver.objective") is None


class TestDisabledPaths:
    def test_tracer_without_registry_records_locally_only(self):
        tracer = Tracer()
        with tracer.span("svt"):
            pass
        tracer.count("cccp.rounds")
        assert tracer.registry is None  # nothing to publish into

    def test_null_registry_bridge_is_noop(self):
        registry = NullRegistry()
        tracer = Tracer(registry=registry)
        with tracer.span("svt"):
            pass
        tracer.count("cccp.rounds")
        tracer.metric("svt.retained_rank", 5)
        tracer.drain()
        assert registry.render() == ""

    def test_null_tracer_never_bridges(self, registry):
        tracer = NullTracer()
        tracer.registry = registry
        with tracer.span("svt"):
            pass
        tracer.count("cccp.rounds")
        tracer.record_iteration(_record(0, 1.0))
        assert registry.families() == []


class TestEndToEndSolve:
    def test_fitting_publishes_solver_series(self, registry):
        # A tiny real fit: the bridge must surface SVT timings, iteration
        # counts, rank and objective without the solver knowing about
        # Prometheus at all.
        from repro.models import SlamPred, TransferTask
        from repro.synth import generate_aligned_pair

        aligned = generate_aligned_pair(scale=24, random_state=3)
        task = TransferTask.from_aligned(aligned, random_state=3)
        tracer = Tracer(registry=registry)
        SlamPred(
            inner_iterations=5, outer_iterations=2, tracer=tracer
        ).fit(task)
        text = registry.render()
        assert "repro_solver_iterations_total" in text
        assert "repro_solver_svt_seconds_bucket" in text
        assert "repro_solver_objective" in text
        assert "repro_solver_rank" in text
        assert registry.get("solver.svt_seconds").snapshot()["count"] >= 1
        assert registry.get("solver.rank").value >= 1
        assert np.isfinite(registry.get("solver.objective").value)
