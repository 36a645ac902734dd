"""Solver-level parity: the factored O(nk) solve against the dense oracle.

Individual ops are exact (see test_op_parity); the assembled trajectories
differ only through the documented off-support relaxation (DESIGN.md §13):
the entry-wise proxes act on the fixed support Ω, off-support mass stays
with the low-rank block.  On Ω the iterates agree tightly, and the
predictive quality (held-out AUC) agrees to within 1e-3 at the figure-3
scale.
Pair scores from the factored predictor are checked exactly against its
own dense materialization — the per-op "scores" parity.
"""

import warnings

import numpy as np
import pytest
from scipy import sparse

from repro.evaluation.metrics import auc_score
from repro.evaluation.splits import k_fold_link_splits
from repro.exceptions import ConfigurationError, TruncatedSVTWarning
from repro.factored import FactoredSolver
from repro.models.base import TransferTask
from repro.models.slampred import SlamPredH, SlamPredT
from repro.networks.social import SocialGraph
from repro.optim.cccp import CCCPSolver
from repro.optim.convergence import ConvergenceCriterion
from repro.optim.forward_backward import (
    FactoredForwardBackwardSolver,
    ForwardBackwardSolver,
)
from repro.optim.losses import SquaredFrobeniusLoss
from repro.optim.proximal import BoxProjection, L1Prox, TraceNormProx
from repro.synth.generator import generate_aligned_pair


def _random_adjacency(n, degree, seed):
    """A symmetric binary graph with roughly ``degree`` links per user."""
    rng = np.random.default_rng(seed)
    upper = sparse.random(
        n, n, density=degree / n, format="csr", random_state=rng
    )
    adjacency = ((upper + upper.T) > 0).astype(float).tocsr()
    adjacency.setdiag(0.0)
    adjacency.eliminate_zeros()
    return adjacency


def _solver_pair(adjacency, step=1e-3, inner=10, outer=3):
    """Matched factored/dense solver configs (no intimacy, exact SVT)."""
    criterion = lambda: ConvergenceCriterion(  # noqa: E731 - tiny factory
        tolerance=1e-9, max_iterations=inner
    )
    outer_criterion = lambda: ConvergenceCriterion(  # noqa: E731
        tolerance=1e-9, max_iterations=outer
    )
    proxes = lambda: [  # noqa: E731
        TraceNormProx(1.0),
        L1Prox(0.05),
        BoxProjection(0.0, None),
    ]
    factored = FactoredSolver(
        adjacency,
        proxes(),
        inner_solver=FactoredForwardBackwardSolver(
            step_size=step, criterion=criterion()
        ),
        outer_criterion=outer_criterion(),
    )
    dense = CCCPSolver(
        loss=SquaredFrobeniusLoss(np.asarray(adjacency.todense())),
        prox_terms=proxes(),
        inner_solver=ForwardBackwardSolver(step_size=step, criterion=criterion()),
        outer_criterion=outer_criterion(),
    )
    return factored, dense


class TestTrajectoryParity:
    def test_iterates_agree_on_support(self):
        adjacency = _random_adjacency(16, degree=4, seed=11)
        factored, dense = _solver_pair(adjacency)
        factored_solution = factored.solve().estimate.to_dense()
        dense_solution = dense.solve(
            np.asarray(adjacency.todense())
        ).solution
        mask = np.asarray(abs(adjacency).todense()) > 0
        on_support = np.max(
            np.abs(factored_solution[mask] - dense_solution[mask])
        )
        assert on_support < 1e-3
        # Off support the relaxation shows (the gap scales with the step
        # size), but stays solver-tolerance sized — the factored solution
        # is the dense one up to prox slack.
        assert (
            np.max(np.abs(factored_solution - dense_solution)) < 5e-2
        )

    def test_result_diagnostics_track_dense(self):
        adjacency = _random_adjacency(16, degree=4, seed=13)
        factored, dense = _solver_pair(adjacency)
        result = factored.solve()
        dense_result = dense.solve(np.asarray(adjacency.todense()))
        assert result.n_rounds == dense_result.n_rounds
        assert len(result.round_norms) == result.n_rounds
        assert all(np.isfinite(result.round_norms))
        # The recorded round norm is ‖S‖_F of the factored iterate — it
        # must match the dense solution's to on-support parity precision.
        dense_norm = float(np.linalg.norm(dense_result.solution))
        assert abs(result.round_norms[-1] - dense_norm) < 1e-2 * (
            1.0 + dense_norm
        )

    def test_results_say_why_they_stopped(self):
        """Both drivers report the stop reason and their last certificate."""
        adjacency = _random_adjacency(16, degree=4, seed=13)
        factored, dense = _solver_pair(adjacency)
        result = factored.solve()
        dense_result = dense.solve(np.asarray(adjacency.todense()))
        for capped in (result, dense_result):
            assert capped.stop_reason == "iteration_cap"
            assert not capped.converged
            assert capped.certificate >= 1e-9
        factored.outer_criterion = ConvergenceCriterion(
            tolerance=1e3, max_iterations=3
        )
        loose = factored.solve()
        assert loose.stop_reason == "converged"
        assert loose.n_rounds == 1
        assert loose.certificate < 1e3


class TestModelParity:
    @pytest.fixture(scope="class")
    def fitted_pair(self, aligned, split):
        """SLAMPRED-T fitted both ways on the shared small fold."""
        config = dict(
            inner_iterations=8,
            outer_iterations=4,
            tolerance=1e-4,
            step_size=1e-3,
        )
        models = []
        for factored in (True, False):
            task = TransferTask(
                target=aligned.target,
                training_graph=split.training_graph,
                sources=list(aligned.sources),
                anchors=list(aligned.anchors),
                random_state=np.random.default_rng(1234),
            )
            models.append(
                SlamPredT(factored=factored, **config).fit(task)
            )
        return models[0], models[1]

    def test_auc_drift_within_gate(self, fitted_pair, split):
        factored, dense = fitted_pair
        factored_auc = auc_score(
            factored.score_pairs(split.test_pairs), split.test_labels
        )
        dense_auc = auc_score(
            dense.score_pairs(split.test_pairs), split.test_labels
        )
        # TestFigure3ScaleDrift gates drift at 1e-3 on the figure-3 scale;
        # at this tiny fold the AUC quantum (one pair-rank flip) is
        # 1/(n_pos·n_neg) ≈ 1.4e-3, so allow a few quanta here.
        n_pos = float(np.sum(split.test_labels))
        quantum = 1.0 / (n_pos * (split.test_labels.size - n_pos))
        assert abs(factored_auc - dense_auc) <= max(1e-3, 3 * quantum)

    def test_score_pairs_match_dense_oracle_exactly(self, fitted_pair):
        """Per-op scores parity: entries vs the same model's dense form."""
        factored, _ = fitted_pair
        oracle = factored.score_matrix  # materialized parity oracle
        n = factored.n_users
        rng = np.random.default_rng(3)
        pairs = [
            (int(u), int(v))
            for u, v in zip(
                rng.integers(0, n, 200), rng.integers(0, n, 200)
            )
        ]
        scores = factored.score_pairs(pairs)
        expected = np.array([oracle[u, v] for u, v in pairs])
        assert np.max(np.abs(scores - expected)) <= 1e-8

    def test_top_k_ordering_matches_dense_oracle(self, fitted_pair):
        """Per-op top-k parity: ranking rows of factors vs the oracle."""
        factored, _ = fitted_pair
        oracle = factored.score_matrix
        estimate = factored.factored_estimate
        for user in (0, 3, 11):
            row = np.maximum(estimate.rows([user])[0], 0.0)
            row[user] = 0.0
            top_factored = np.argsort(-row, kind="stable")[:10]
            top_oracle = np.argsort(-oracle[user], kind="stable")[:10]
            assert list(top_factored) == list(top_oracle)

    def test_factored_scores_are_positive_rescale_of_dense(
        self, fitted_pair
    ):
        """Unnormalized factored scores vs peak-normalized dense scores:
        the rankings over the G-supported (positive) entries agree."""
        factored, dense = fitted_pair
        f_scores = factored.score_matrix.ravel()
        d_scores = dense.score_matrix.ravel()
        top = np.argsort(-d_scores, kind="stable")[:50]
        f_top = set(np.argsort(-f_scores, kind="stable")[:50])
        overlap = len(f_top.intersection(top)) / 50.0
        assert overlap >= 0.9


class TestFigure3ScaleDrift:
    def test_factored_auc_within_1e3_of_exact(self):
        """SLAMPRED-T at scale 140 (8×6 iterations, seed 1), both ways.

        The dense side takes the factored path's step 0.05 and a tolerance
        that lets neither loop stop early, so both run the same budget.
        """
        aligned = generate_aligned_pair(scale=140, random_state=1)
        graph = SocialGraph.from_network(aligned.target)
        split = k_fold_link_splits(graph, n_folds=5, random_state=1)[0]
        aucs = []
        dense = {"step_size": 0.05, "tolerance": 1e-12}
        for options in (dense, {"factored": True}):
            task = TransferTask(
                target=aligned.target,
                training_graph=split.training_graph,
                random_state=np.random.default_rng(1),
            )
            model = SlamPredT(
                inner_iterations=8, outer_iterations=6, **options
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncatedSVTWarning)
                model.fit(task)
            aucs.append(
                auc_score(model.score_pairs(split.test_pairs), split.test_labels)
            )
        assert np.all(np.isfinite(aucs))
        assert abs(aucs[1] - aucs[0]) <= 1e-3


class TestFitAdjacency:
    def test_structural_fit_from_sparse(self):
        adjacency = _random_adjacency(120, degree=5, seed=21)
        model = SlamPredH(
            factored=True,
            svd_rank=8,
            inner_iterations=6,
            outer_iterations=2,
            tolerance=1e-4,
        ).fit_adjacency(adjacency)
        assert model.n_users == 120
        estimate = model.factored_estimate
        assert estimate.n_users == 120
        scores = model.score_pairs([(0, 1), (5, 5), (10, 40)])
        assert np.all(np.isfinite(scores))
        assert np.all(scores >= 0.0)
        assert scores[1] == 0.0  # diagonal is never a candidate

    def test_requires_factored(self):
        with pytest.raises(ConfigurationError, match="factored=True"):
            SlamPredH().fit_adjacency(_random_adjacency(10, 3, 1))

    def test_requires_structural_variant(self):
        with pytest.raises(ConfigurationError, match="structural-only"):
            SlamPredT(factored=True).fit_adjacency(
                _random_adjacency(10, 3, 1)
            )

    def test_checkpointing_is_dense_only(self, task, tmp_path):
        with pytest.raises(ConfigurationError, match="dense-path"):
            SlamPredH(
                factored=True, inner_iterations=2, outer_iterations=1
            ).fit(task, checkpoint_dir=str(tmp_path))
