"""Tests for repro.evaluation.splits."""

import numpy as np
import pytest

from repro.evaluation.splits import (
    k_fold_link_splits,
    sample_negative_pairs,
)
from repro.exceptions import EvaluationError
from repro.networks.social import SocialGraph
from repro.utils.matrices import pairs_to_matrix


class TestNegativeSampling:
    def test_count(self, target_graph):
        negatives = sample_negative_pairs(target_graph, 10, random_state=0)
        assert len(negatives) == 10

    def test_are_non_links(self, target_graph):
        negatives = sample_negative_pairs(target_graph, 20, random_state=0)
        links = target_graph.links()
        assert not any(pair in links for pair in negatives)

    def test_no_duplicates(self, target_graph):
        negatives = sample_negative_pairs(target_graph, 30, random_state=0)
        assert len(set(negatives)) == 30

    def test_exclusion(self, target_graph):
        pool = target_graph.non_links()
        excluded = set(pool[:5])
        negatives = sample_negative_pairs(
            target_graph, len(pool) - 5, random_state=0, exclude=excluded
        )
        assert not any(p in excluded for p in negatives)

    def test_exclusion_matches_reversed_pairs(self, target_graph):
        # The pool holds (i, j) with i < j; an excluded (j, i) names the
        # same pair and must be removed too.
        pool = target_graph.non_links()
        excluded = {(j, i) for i, j in pool[:5]}
        negatives = sample_negative_pairs(
            target_graph, len(pool) - 5, random_state=0, exclude=excluded
        )
        assert sorted(negatives) == pool[5:]
        with pytest.raises(EvaluationError, match="negative"):
            sample_negative_pairs(
                target_graph, len(pool) - 4, random_state=0, exclude=excluded
            )

    def test_too_many_raises(self):
        graph = SocialGraph(pairs_to_matrix([(0, 1)], 3))
        with pytest.raises(EvaluationError, match="negative"):
            sample_negative_pairs(graph, 10, random_state=0)

    def test_zero(self, target_graph):
        assert sample_negative_pairs(target_graph, 0) == []

    def test_deterministic(self, target_graph):
        a = sample_negative_pairs(target_graph, 15, random_state=3)
        b = sample_negative_pairs(target_graph, 15, random_state=3)
        assert a == b


class TestKFoldSplits:
    def test_fold_count(self, target_graph):
        splits = k_fold_link_splits(target_graph, n_folds=4, random_state=0)
        assert len(splits) == 4

    def test_folds_partition_links(self, target_graph):
        splits = k_fold_link_splits(target_graph, n_folds=4, random_state=0)
        all_test = [pair for s in splits for pair in s.test_links]
        assert len(all_test) == target_graph.n_links
        assert len(set(all_test)) == target_graph.n_links

    def test_training_graph_masks_test(self, splits):
        for split in splits:
            train_links = split.training_graph.links()
            for pair in split.test_links:
                assert pair not in train_links

    def test_negative_ratio(self, target_graph):
        splits = k_fold_link_splits(
            target_graph, n_folds=3, negative_ratio=2.0, random_state=0
        )
        for split in splits:
            assert len(split.test_non_links) == 2 * len(split.test_links)

    def test_negatives_never_links(self, splits, target_graph):
        links = target_graph.links()
        for split in splits:
            assert not any(p in links for p in split.test_non_links)

    def test_labels_aligned(self, split):
        labels = split.test_labels
        assert labels.sum() == len(split.test_links)
        assert len(labels) == len(split.test_pairs)

    def test_too_few_links(self):
        graph = SocialGraph(pairs_to_matrix([(0, 1)], 4))
        with pytest.raises(EvaluationError, match="folds"):
            k_fold_link_splits(graph, n_folds=5)

    def test_invalid_negative_ratio(self, target_graph):
        with pytest.raises(EvaluationError):
            k_fold_link_splits(target_graph, negative_ratio=0.0)

    def test_deterministic(self, target_graph):
        a = k_fold_link_splits(target_graph, n_folds=3, random_state=9)
        b = k_fold_link_splits(target_graph, n_folds=3, random_state=9)
        for split_a, split_b in zip(a, b):
            assert split_a.test_links == split_b.test_links
            assert split_a.test_non_links == split_b.test_non_links


class TestTwoHopNegatives:
    def test_hard_negatives_share_neighbors(self, target_graph):
        negatives = sample_negative_pairs(
            target_graph, 20, random_state=0, strategy="two_hop"
        )
        adjacency = target_graph.adjacency
        two_hop = adjacency @ adjacency
        # with a well-connected graph, all 20 should come from the hard pool
        assert all(two_hop[p] > 0 for p in negatives)

    def test_still_non_links(self, target_graph):
        negatives = sample_negative_pairs(
            target_graph, 20, random_state=0, strategy="two_hop"
        )
        links = target_graph.links()
        assert not any(p in links for p in negatives)

    def test_tops_up_uniformly_when_hard_pool_small(self):
        import numpy as np
        from repro.utils.matrices import pairs_to_matrix

        # path graph 0-1-2 plus isolated nodes: only (0, 2) is two-hop
        graph = SocialGraph(pairs_to_matrix([(0, 1), (1, 2)], 6))
        negatives = sample_negative_pairs(
            graph, 5, random_state=0, strategy="two_hop"
        )
        assert (0, 2) in negatives
        assert len(negatives) == 5

    def test_unknown_strategy_rejected(self, target_graph):
        with pytest.raises(EvaluationError, match="strategy"):
            sample_negative_pairs(target_graph, 5, strategy="nope")

    def test_splits_accept_strategy(self, target_graph):
        splits = k_fold_link_splits(
            target_graph, n_folds=3, random_state=0,
            negative_strategy="two_hop",
        )
        adjacency = target_graph.adjacency
        two_hop = adjacency @ adjacency
        hard = sum(
            two_hop[p] > 0 for s in splits for p in s.test_non_links
        )
        total = sum(len(s.test_non_links) for s in splits)
        assert hard / total > 0.9

    def test_two_hop_harder_than_uniform(self, aligned, target_graph):
        """Hard negatives should depress neighborhood-predictor AUC."""
        from repro.evaluation.metrics import auc_score
        from repro.models.base import TransferTask
        from repro.models.unsupervised import CommonNeighbors

        def auc_with(strategy):
            splits = k_fold_link_splits(
                target_graph, n_folds=3, random_state=3,
                negative_strategy=strategy,
            )
            values = []
            for split in splits:
                task = TransferTask(aligned.target, split.training_graph)
                model = CommonNeighbors().fit(task)
                values.append(
                    auc_score(
                        model.score_pairs(split.test_pairs), split.test_labels
                    )
                )
            return sum(values) / len(values)

        assert auc_with("two_hop") < auc_with("uniform")
