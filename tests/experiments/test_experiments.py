"""Tests for the experiment reproductions (small-scale runs)."""

import pytest

from repro.experiments.figure3 import run_figure3
from repro.experiments.figure4 import run_figure4
from repro.experiments.figure5 import run_figure5
from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.exceptions import ConfigurationError


class TestRegistry:
    def test_all_experiments_present(self):
        assert set(EXPERIMENTS) == {
            "table1",
            "table2",
            "figure3",
            "figure4",
            "figure5",
            "streaming-staleness",
        }

    def test_lookup(self):
        assert callable(get_experiment("table1"))

    def test_unknown(self):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            get_experiment("table99")


class TestTable1:
    def test_stats_structure(self):
        result = run_table1(scale=50, random_state=0)
        assert len(result["stats"]) == 2
        for stats in result["stats"].values():
            assert stats["users"] > 0
            assert stats["posts"] > 0
        assert result["anchors"] > 0
        assert "Table I" in result["text"]

    def test_twitter_like_posts_more(self):
        result = run_table1(scale=80, random_state=0)
        stats = result["stats"]
        assert (
            stats["twitter-like"]["posts"] > stats["foursquare-like"]["posts"]
        )


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        return run_table2(
            scale=50, ratios=(0.0, 1.0), n_folds=2, precision_k=10,
            random_state=5,
        )

    def test_all_methods_present(self, result):
        assert len(result["sweep"].methods) == 12

    def test_tables_rendered(self, result):
        assert "SLAMPRED" in result["auc_text"]
        assert "Precision@10" in result["precision_text"]

    def test_transfer_methods_improve(self, result):
        sweep = result["sweep"]
        series = sweep.series("SLAMPRED", "auc")
        assert series[-1] >= series[0] - 0.02

    def test_flat_methods_constant(self, result):
        sweep = result["sweep"]
        for method in ("SLAMPRED-T", "JC", "CN", "PA"):
            series = sweep.series(method, "auc")
            assert series[0] == series[-1]


class TestFigure3:
    def test_convergence_series(self):
        result = run_figure3(scale=50, random_state=0)
        assert result["n_iterations"] > 0
        assert len(result["variable_norms"]) == result["n_iterations"]
        # Figure 3's observation: updates decay toward zero.
        assert result["update_norms"][-1] < result["update_norms"][0]
        assert "Figure 3" in result["text"]


class TestRunWithReport:
    def test_experiment_fit_nests_in_one_trace(self, tmp_path):
        from repro.experiments.registry import run_with_report
        from repro.observability.metrics import MetricsRegistry

        registry = MetricsRegistry()
        result, report = run_with_report(
            "figure3",
            report_path=str(tmp_path / "report.json"),
            registry=registry,
            scale=40,
            inner_iterations=3,
            outer_iterations=2,
        )
        (root,) = report.spans
        assert root["name"] == "request.experiment:figure3"
        (fit,) = root["children"]
        assert fit["name"] == "fit"
        assert [child["name"] for child in fit["children"]][-1] == "cccp"
        assert len(report.iterations) == result["n_iterations"]
        # Striped counters are drained into the registry after the run.
        rounds = registry.get("solver.cccp_rounds").value
        assert rounds == report.counters["cccp.rounds"] == result["n_rounds"]


class TestAlphaFigures:
    def test_figure4_curves(self):
        result = run_figure4(
            fixed_alpha_t=(1.0,), alphas=(0.0, 1.0), scale=50, n_folds=2,
            precision_k=10, random_state=0,
        )
        assert (1.0, "auc") in result["curves"]
        assert len(result["curves"][(1.0, "auc")]) == 2

    def test_figure5_curves(self):
        result = run_figure5(
            fixed_alpha_s=(0.0,), alphas=(0.0, 1.0), scale=50, n_folds=2,
            precision_k=10, random_state=0,
        )
        assert (0.0, "auc") in result["curves"]
        assert "alpha_t" in result["text"]

    def test_invalid_sweep_parameter(self):
        from repro.experiments._alpha_sweep import run_alpha_sweep

        with pytest.raises(ValueError, match="sweep_parameter"):
            run_alpha_sweep("alpha_x", fixed_values=(0.0,))


class TestCli:
    def test_main_runs_table1(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["table1", "--scale", "40", "--seed", "1"]) == 0
        assert "Table I" in capsys.readouterr().out

    def test_parser_rejects_unknown(self):
        from repro.experiments.__main__ import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["tableX"])


class TestCliAll:
    def test_all_runs_everything(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["all", "--scale", "40", "--folds", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Table II" in out
        assert "Figure 3" in out
        assert "alpha_s" in out and "alpha_t" in out
