"""Scalability: SLAMPRED at larger-than-default network sizes.

The paper runs on ~5k-user networks.  This benchmark exercises the scalable
code path — the warm-started SVT engine capped at ``svd_rank`` — against
the uncapped engine, which is the exact SVT up to its verified residual
tolerance, at a few hundred users, and checks the two agree on ranking
quality.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation.metrics import auc_score
from repro.evaluation.splits import k_fold_link_splits
from repro.models.base import TransferTask
from repro.models.slampred import SlamPredT
from repro.networks.social import SocialGraph
from repro.synth.generator import generate_aligned_pair

SCALE = 250


@pytest.fixture(scope="module")
def big_world():
    aligned = generate_aligned_pair(scale=SCALE, random_state=31)
    graph = SocialGraph.from_network(aligned.target)
    split = k_fold_link_splits(graph, n_folds=5, random_state=31)[0]
    return aligned, split


def _fit(aligned, split, **kwargs):
    task = TransferTask(
        target=aligned.target,
        training_graph=split.training_graph,
        random_state=np.random.default_rng(31),
    )
    return SlamPredT(**kwargs).fit(task)


@pytest.mark.parametrize("svd_rank", [None, 40])
def test_scalability_svd_rank(benchmark, big_world, svd_rank):
    aligned, split = big_world
    model = benchmark.pedantic(
        _fit,
        args=(aligned, split),
        kwargs={"svd_rank": svd_rank},
        rounds=1,
        iterations=1,
    )
    auc = auc_score(model.score_pairs(split.test_pairs), split.test_labels)
    label = "exact" if svd_rank is None else f"rank-{svd_rank}"
    print(f"\n{label} SVT at ~{aligned.target.n_users} users: AUC={auc:.3f}")
    assert auc > 0.6


def test_scalability_rankings_agree(benchmark, big_world):
    """Truncated and exact SVT must produce near-identical rankings."""
    aligned, split = big_world

    def run():
        exact = _fit(aligned, split)
        truncated = _fit(aligned, split, svd_rank=40)
        return exact, truncated

    exact, truncated = benchmark.pedantic(run, rounds=1, iterations=1)
    auc_exact = auc_score(
        exact.score_pairs(split.test_pairs), split.test_labels
    )
    auc_truncated = auc_score(
        truncated.score_pairs(split.test_pairs), split.test_labels
    )
    print(f"\nexact={auc_exact:.4f} truncated={auc_truncated:.4f}")
    assert abs(auc_exact - auc_truncated) < 0.01
