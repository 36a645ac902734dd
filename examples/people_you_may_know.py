"""Serving "people you may know" from a fitted SLAMPRED model.

The paper's motivation is retention: users with more friends use the network
more, so surfacing good friend candidates matters.  This example fits
SLAMPRED, wraps it in the :class:`~repro.models.recommender.LinkRecommender`
serving facade, persists the fitted predictor to disk, reloads it in a
"serving process" that never sees the training stack, and measures the
hit rate on hidden links.

Run with::

    python examples/people_you_may_know.py
"""

from __future__ import annotations

import tempfile

import numpy as np

from repro import (
    SlamPred,
    SocialGraph,
    TransferTask,
    generate_aligned_pair,
    k_fold_link_splits,
    load_predictor,
    save_predictor,
)
from repro.models.recommender import LinkRecommender


def main() -> None:
    aligned = generate_aligned_pair(scale=120, random_state=23)
    graph = SocialGraph.from_network(aligned.target)
    split = k_fold_link_splits(graph, n_folds=5, random_state=23)[0]

    # --- training process ------------------------------------------------
    task = TransferTask(
        target=aligned.target,
        training_graph=split.training_graph,
        sources=list(aligned.sources),
        anchors=list(aligned.anchors),
        random_state=np.random.default_rng(23),
    )
    model = SlamPred().fit(task)
    with tempfile.TemporaryDirectory() as directory:
        save_predictor(model, directory)
        print(f"trained SLAMPRED, persisted to {directory}")

        # --- serving process ----------------------------------------------
        served = load_predictor(directory)
        serve(served, split)


def serve(served, split) -> None:
    """Recommend from the reloaded predictor and score the hidden links."""
    recommender = LinkRecommender(served, split.training_graph)

    user = int(np.argmax(split.training_graph.degrees()))
    print(f"\nrecommendations for the best-connected user (#{user}, "
          f"{split.training_graph.degree(user)} friends):")
    for candidate, score in recommender.recommend(user, k=5):
        marker = "✓ hidden link!" if (
            (min(user, candidate), max(user, candidate)) in split.test_links
        ) else ""
        print(f"  user {candidate:3d}  score={score:.3f}  {marker}")

    for k in (5, 10, 20):
        rate = recommender.hit_rate(split.test_links, k=k)
        print(f"hit rate @ top-{k}: {rate:.1%} of hidden links surfaced")


if __name__ == "__main__":
    main()
