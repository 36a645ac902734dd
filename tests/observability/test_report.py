"""Unit tests for run reports: schema, persistence, summary rendering."""

import json

import numpy as np
import pytest

from repro.observability.records import IterationRecord
from repro.observability.report import (
    SCHEMA_VERSION,
    RunReport,
    build_run_report,
    default_report_path,
)
from repro.observability.tracer import Tracer


@pytest.fixture()
def traced_run():
    tracer = Tracer()
    with tracer.trace("fit") as trace:
        with tracer.span("cccp"):
            with tracer.span("gradient"):
                pass
            with tracer.span("prox:TraceNormProx"):
                tracer.metric("svt.retained_rank", 7)
        tracer.count("fb.iterations", 3)
        record = IterationRecord(
            iteration=0,
            variable_norm=10.0,
            update_norm=1.0,
            objective=5.5,
            objective_terms={"loss": 5.0, "l1": 0.5},
            round=1,
        )
        tracer.record_iteration(record)
    return tracer, trace


def _report(traced_run, **kwargs):
    tracer, trace = traced_run
    return build_run_report(trace, **kwargs)


class TestBuildAndSchema:
    def test_schema_version_stamped(self, traced_run):
        report = _report(traced_run, name="unit")
        assert report.schema_version == SCHEMA_VERSION
        assert report.to_dict()["schema_version"] == SCHEMA_VERSION

    def test_collects_all_channels(self, traced_run):
        report = _report(traced_run, name="unit", meta={"k": 1})
        assert report.meta == {"k": 1}
        assert report.spans[0]["name"] == "request.fit"
        assert report.spans[0]["children"][0]["name"] == "cccp"
        assert report.counters == {"fb.iterations": 3}
        assert report.metrics["svt.retained_rank"] == [7.0]
        assert report.iterations[0]["objective_terms"] == {
            "loss": 5.0,
            "l1": 0.5,
        }
        assert report.phase_totals["prox:TraceNormProx"]["count"] == 1

    def test_snapshot_is_decoupled(self, traced_run):
        report = _report(traced_run, name="unit")
        tracer, trace = traced_run
        tracer.count("fb.iterations")
        trace.add_metric("svt.retained_rank", 6)
        assert report.counters == {"fb.iterations": 3}
        assert report.metrics["svt.retained_rank"] == [7.0]


class TestPersistence:
    def test_save_load_roundtrip(self, traced_run, tmp_path):
        report = _report(traced_run, name="unit", meta={"seed": 17})
        path = report.save(str(tmp_path / "nested" / "report.json"))
        loaded = RunReport.load(path)
        assert loaded.to_dict() == report.to_dict()

    def test_saved_json_is_plain(self, traced_run, tmp_path):
        path = _report(traced_run, name="unit").save(
            str(tmp_path / "report.json")
        )
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["name"] == "unit"
        assert isinstance(payload["iterations"][0]["variable_norm"], float)

    def test_load_rejects_unknown_schema(self, traced_run, tmp_path):
        path = str(tmp_path / "report.json")
        payload = _report(traced_run, name="unit").to_dict()
        payload["schema_version"] = SCHEMA_VERSION + 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        with pytest.raises(ValueError, match="schema_version"):
            RunReport.load(path)

    def test_default_report_path(self):
        assert default_report_path("figure3").endswith(
            "results/run_report.figure3.json"
        )


class TestSummary:
    def test_summary_mentions_phases_and_rank(self, traced_run):
        text = _report(traced_run, name="unit").summary()
        assert "unit" in text
        assert "prox:TraceNormProx" in text
        assert "retained SVD rank" in text
        assert "final objective" in text
        assert "fb.iterations: 3" in text

    def test_summary_on_empty_tracer(self):
        with Tracer().trace("empty") as trace:
            pass
        text = build_run_report(trace, name="empty").summary()
        assert "empty" in text

    def test_summary_states_the_stop(self, traced_run):
        meta = {"stop_reason": "converged", "certificate": 8.4e-4}
        text = _report(traced_run, name="unit", meta=meta).summary()
        assert "stop_reason=converged certificate=0.00084" in text

    def test_a_lossy_cap_says_so(self):
        tracer = Tracer()
        with tracer.trace("fit") as trace:
            tracer.count("svt.lossy_truncations", 100)
        meta = {"stop_reason": "iteration_cap", "certificate": 3.3e-4}
        text = build_run_report(trace, name="capped", meta=meta).summary()
        assert "stop_reason=iteration_cap" in text
        assert "lossy on 100 applies" in text


class TestModelRunReport:
    def test_requires_live_tracer(self, aligned, split):
        from repro.exceptions import ConfigurationError
        from repro.models.base import TransferTask
        from repro.models.slampred import SlamPredH

        task = TransferTask(
            target=aligned.target,
            training_graph=split.training_graph,
            sources=list(aligned.sources),
            anchors=list(aligned.anchors),
            random_state=np.random.default_rng(5),
        )
        model = SlamPredH(inner_iterations=3, outer_iterations=2)
        model.fit(task)
        with pytest.raises(ConfigurationError, match="live tracer"):
            model.run_report()

    def test_requires_fit(self):
        from repro.exceptions import NotFittedError
        from repro.models.slampred import SlamPredH

        with pytest.raises(NotFittedError):
            SlamPredH(tracer=Tracer()).run_report()

    def test_full_report_from_model(self, aligned, split):
        from repro.models.base import TransferTask
        from repro.models.slampred import SlamPredH

        task = TransferTask(
            target=aligned.target,
            training_graph=split.training_graph,
            sources=list(aligned.sources),
            anchors=list(aligned.anchors),
            random_state=np.random.default_rng(5),
        )
        tracer = Tracer()
        model = SlamPredH(
            inner_iterations=3, outer_iterations=2, tracer=tracer
        )
        model.fit(task)
        report = model.run_report(meta={"fold": 0})
        assert report.meta["model"] == "SLAMPRED-H"
        assert report.meta["fold"] == 0
        assert report.meta["n_rounds"] == model.result.n_rounds
        assert report.meta["stop_reason"] == model.result.stop_reason
        assert report.meta["certificate"] == model.result.certificate
        assert len(report.iterations) == model.result.history.n_iterations
        # The objective is evaluated once per CCCP round, on its last record.
        with_objective = [
            record for record in report.iterations if "objective_terms" in record
        ]
        assert len(with_objective) == model.result.n_rounds
        assert report.iterations[-1] is with_objective[-1]
        assert all("round" in record for record in report.iterations)
        # Per-apply SVT diagnostics live in the metric streams.
        assert len(report.metrics["svt.retained_rank"]) == len(
            report.iterations
        )
        assert "retained SVD rank" in report.summary()
