"""Paper-scale smoke test: the pipeline at several hundred users.

The paper's networks hold ~5k users.  This bench runs the full
generate → split → fit → score pipeline at scale 800 (≈760 target users,
~8k links) with the rank-capped (``svd_rank``) warm SVT engine,
demonstrating that nothing in the stack is quadratic-with-a-huge-constant
and that quality holds up as the problem grows.
"""

from __future__ import annotations

import numpy as np

from repro.evaluation.metrics import auc_score
from repro.evaluation.splits import k_fold_link_splits
from repro.models.base import TransferTask
from repro.models.slampred import SlamPredT
from repro.networks.social import SocialGraph
from repro.synth.generator import generate_aligned_pair


def test_paper_scale_smoke(benchmark):
    def run():
        aligned = generate_aligned_pair(scale=800, random_state=1)
        graph = SocialGraph.from_network(aligned.target)
        split = k_fold_link_splits(graph, n_folds=5, random_state=1)[0]
        task = TransferTask(
            target=aligned.target,
            training_graph=split.training_graph,
            random_state=np.random.default_rng(1),
        )
        model = SlamPredT(
            svd_rank=60, inner_iterations=10, outer_iterations=10
        ).fit(task)
        auc = auc_score(
            model.score_pairs(split.test_pairs), split.test_labels
        )
        return aligned, auc

    aligned, auc = benchmark.pedantic(run, rounds=1, iterations=1)
    print(
        f"\nscale 800: {aligned.target.n_users} target users, "
        f"{aligned.target.n_social_links} links, AUC={auc:.3f}"
    )
    assert aligned.target.n_users > 600
    assert auc > 0.7
