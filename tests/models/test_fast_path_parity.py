"""Fast-path guarantees at the model level.

Three contracts ride on ``SlamPred(exact=...)``:

* ``exact=True`` is the seed solver, bit for bit — no SVT engine, no
  fused smooth term (the golden figure-3 regression pins its numerics);
* the fast path matches the exact path to 1e-6 in the score matrix on
  the **figure-3 configuration** (``svd_rank=None`` and the figure's
  step 0.05), where the warm engine is an exact operator;
* the fast path is deterministic: same task, same seeds, same bits;
* under a lossy rank cap (``svd_rank=40``) the fast path's held-out AUC
  stays within 0.05 of the exact path's, with no dense SVD fallback.

The parity fits run at a scale whose adjacency is *larger* than the
engine's ``dense_cutoff`` so the randomized warm-start machinery is
genuinely exercised rather than short-circuited to the dense path.
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


@pytest.fixture(scope="module")
def problem():
    aligned = generate_aligned_pair(scale=SCALE, random_state=7)
    graph = SocialGraph.from_network(aligned.target)
    split = k_fold_link_splits(graph, n_folds=5, random_state=7)[0]
    return aligned, split


def _fit(problem, svd_rank, exact, step_size=None):
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
        exact=exact,
        step_size=step_size,
    )
    model.fit(task)
    return model


class TestFigure3Parity:
    def test_fast_path_matches_exact_to_1e6(self, problem):
        """The 1e-6 parity bound, on the figure-3 configuration.

        Both fits take the figure's step: the hot path's own default step
        (0.9/L) is a different iteration, not a different engine.
        """
        exact = _fit(problem, None, exact=True, step_size=0.05)
        fast = _fit(problem, None, exact=False, step_size=0.05)
        max_abs_diff = float(
            np.abs(exact.score_matrix - fast.score_matrix).max()
        )
        assert np.isfinite(max_abs_diff)
        assert max_abs_diff <= 1e-6

    def test_exact_path_has_no_engine(self, problem):
        exact = _fit(problem, None, exact=True)
        assert exact._svt_engine is None

    def test_fast_path_engine_is_used(self, problem):
        fast = _fit(problem, None, exact=False)
        assert fast._svt_engine is not None
        assert fast._svt_engine.stats["applies"] > 0


class TestDeterminism:
    def test_fast_path_is_bitwise_reproducible(self, problem):
        first = _fit(problem, 20, exact=False)
        second = _fit(problem, 20, exact=False)
        assert np.array_equal(first.score_matrix, second.score_matrix)

    def test_exact_path_is_bitwise_reproducible(self, problem):
        first = _fit(problem, None, exact=True)
        second = _fit(problem, None, exact=True)
        assert np.array_equal(first.score_matrix, second.score_matrix)


class TestRankCappedQuality:
    """The rank-capped configuration: both paths apply the same lossy cap.

    Neither path computes the exact prox under ``svd_rank=40`` at scale
    300, so parity is predictive: the fast AUC agrees with the seed
    solver's, clears 0.7, and the warm engine never falls back to a dense
    SVD.
    """

    def test_fast_auc_matches_exact_without_dense_fallbacks(self):
        aligned = generate_aligned_pair(scale=300, random_state=1)
        graph = SocialGraph.from_network(aligned.target)
        split = k_fold_link_splits(graph, n_folds=5, random_state=1)[0]
        aucs = {}
        for exact in (True, False):
            task = TransferTask(
                target=aligned.target,
                training_graph=split.training_graph,
                random_state=np.random.default_rng(1),
            )
            model = SlamPredT(
                svd_rank=40, inner_iterations=8, outer_iterations=6, exact=exact
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncatedSVTWarning)
                model.fit(task)
            aucs[exact] = auc_score(
                model.score_pairs(split.test_pairs), split.test_labels
            )
        assert abs(aucs[False] - aucs[True]) <= 0.05
        assert aucs[False] > 0.7
        assert model._svt_engine.stats["dense_fallbacks"] == 0
