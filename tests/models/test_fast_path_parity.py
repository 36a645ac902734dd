"""The one dense SLAMPRED path against its dense-SVT oracle.

The dense path runs every trace-norm prox on the warm-started SVT engine.
The oracle is the same fit with ``svt_options={"dense_cutoff": 10**6}``,
so every apply is the exact dense SVT.  Three contracts:

* uncapped (``svd_rank=None``), the engine path matches the oracle to
  1e-6 in the score matrix on the figure-3 solver configuration (the
  figure's step 0.05) with ``tau=5.0``, where the engine genuinely runs
  randomized applies rather than short-circuiting every one to the
  dense path;
* both paths are deterministic: same task, same seeds, same bits;
* under a lossy rank cap (``svd_rank=40``) the held-out AUC stays within
  0.05 of the uncapped oracle's, with no dense SVD fallback.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.evaluation.metrics import auc_score
from repro.evaluation.splits import k_fold_link_splits
from repro.exceptions import TruncatedSVTWarning
from repro.models.base import TransferTask
from repro.models.slampred import SlamPredT
from repro.networks.social import SocialGraph
from repro.synth.generator import generate_aligned_pair

SCALE = 140  # n_users > WarmStartSVT.dense_cutoff (96)
INNER = 6
OUTER = 4
# Every apply of the uncapped engine is the exact dense SVT.
DENSE_ORACLE = {"dense_cutoff": 10**6}


@pytest.fixture(scope="module")
def problem():
    aligned = generate_aligned_pair(scale=SCALE, random_state=7)
    graph = SocialGraph.from_network(aligned.target)
    split = k_fold_link_splits(graph, n_folds=5, random_state=7)[0]
    return aligned, split


def _fit(problem, svd_rank, **options):
    aligned, split = problem
    task = TransferTask(
        target=aligned.target,
        training_graph=split.training_graph,
        random_state=np.random.default_rng(3),
    )
    model = SlamPredT(
        svd_rank=svd_rank,
        inner_iterations=INNER,
        outer_iterations=OUTER,
        **options,
    )
    with warnings.catch_warnings():
        # Dense fallbacks of the uncapped engine announce themselves.
        warnings.simplefilter("ignore", TruncatedSVTWarning)
        model.fit(task)
    return model


class TestFigure3Parity:
    def test_fast_path_matches_exact_to_1e6(self, problem):
        """The 1e-6 parity bound, with randomized applies in the fit.

        At ``tau=1.0`` the uncapped spectrum grows into the dense regime
        and every apply goes dense; ``tau=5.0`` keeps the retained rank
        small enough for the randomized range finder.
        """
        options = {"tau": 5.0, "step_size": 0.05}
        oracle = _fit(problem, None, svt_options=DENSE_ORACLE, **options)
        engine = _fit(problem, None, **options)
        stats = engine._svt_engine.stats
        assert stats["applies"] > stats["dense_applies"]
        assert oracle._svt_engine.stats["dense_applies"] == (
            oracle._svt_engine.stats["applies"]
        )
        max_abs_diff = float(
            np.abs(oracle.score_matrix - engine.score_matrix).max()
        )
        assert np.isfinite(max_abs_diff)
        assert max_abs_diff <= 1e-6

    def test_fast_path_engine_is_used(self, problem):
        model = _fit(problem, None)
        assert model._svt_engine is not None
        assert model._svt_engine.stats["applies"] > 0


class TestDeterminism:
    def test_fast_path_is_bitwise_reproducible(self, problem):
        first = _fit(problem, 20)
        second = _fit(problem, 20)
        assert np.array_equal(first.score_matrix, second.score_matrix)

    def test_exact_path_is_bitwise_reproducible(self, problem):
        first = _fit(problem, None, svt_options=DENSE_ORACLE)
        second = _fit(problem, None, svt_options=DENSE_ORACLE)
        assert np.array_equal(first.score_matrix, second.score_matrix)


class TestRankCappedQuality:
    """The rank-capped configuration against the uncapped oracle.

    ``svd_rank=40`` at scale 300 drops live spectrum, so parity is
    predictive: the capped AUC stays within 0.05 of the exact-SVT
    oracle's, clears 0.7, and the capped engine never falls back to a
    dense SVD.
    """

    def test_fast_auc_matches_exact_without_dense_fallbacks(self):
        aligned = generate_aligned_pair(scale=300, random_state=1)
        graph = SocialGraph.from_network(aligned.target)
        split = k_fold_link_splits(graph, n_folds=5, random_state=1)[0]
        aucs = {}
        for name, options in (
            ("oracle", {"svt_options": DENSE_ORACLE}),
            ("capped", {"svd_rank": 40}),
        ):
            task = TransferTask(
                target=aligned.target,
                training_graph=split.training_graph,
                random_state=np.random.default_rng(1),
            )
            model = SlamPredT(inner_iterations=8, outer_iterations=6, **options)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncatedSVTWarning)
                model.fit(task)
            aucs[name] = auc_score(
                model.score_pairs(split.test_pairs), split.test_labels
            )
        assert abs(aucs["capped"] - aucs["oracle"]) <= 0.05
        assert aucs["capped"] > 0.7
        assert model._svt_engine.stats["dense_fallbacks"] == 0
