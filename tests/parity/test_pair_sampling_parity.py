"""Array pair samplers against their tuple-list oracles (``pair_oracles``).

Over small random graphs, every sampler must return exactly what the loop
version returns — pairs, labels, features, or the same exception — and
leave the generator in exactly the same state, so fits seeded before and
after the switch to index arrays draw the same pairs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptation.adapter import align_source_to_target
from repro.adaptation.indicators import sample_link_instances
from repro.evaluation.splits import k_fold_link_splits, sample_negative_pairs
from repro.features.tensor import FeatureTensor
from repro.models.base import TransferTask
from repro.models.slampred import SlamPred
from repro.networks.aligned import AnchorLinks
from repro.networks.social import SocialGraph
from repro.synth import generate_aligned_pair
from repro.utils.matrices import pairs_to_matrix
from tests.parity.pair_oracles import (
    align_source_to_target_loop,
    links_loop,
    non_links_loop,
    sample_link_instances_loop,
    sample_negative_pairs_loop,
)


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(2, max_n))
    n_pairs = n * (n - 1) // 2
    bits = draw(st.lists(st.booleans(), min_size=n_pairs, max_size=n_pairs))
    rows, cols = np.triu_indices(n, k=1)
    adjacency = np.zeros((n, n))
    adjacency[rows, cols] = bits
    return SocialGraph(adjacency + adjacency.T)


@st.composite
def pair_lists(draw, n):
    """Pairs with duplicates, reversals and endpoints outside [0, n)."""
    index = st.integers(-2, n + 1)
    base = draw(st.lists(st.tuples(index, index), max_size=6))
    flips = draw(st.lists(st.booleans(), min_size=len(base), max_size=len(base)))
    pairs = [(j, i) if flip else (i, j) for (i, j), flip in zip(base, flips)]
    n_reversed = draw(st.integers(0, len(base)))
    n_repeated = draw(st.integers(0, len(base)))
    return (
        pairs
        + [(j, i) for i, j in pairs[:n_reversed]]
        + pairs[:n_repeated]
    )


def _outcome(call):
    """The call's result, or the type of the exception it raised."""
    try:
        return call()
    except Exception as exc:  # compared, not swallowed
        return type(exc)


def _generators(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


class TestGraphPairs:
    @settings(max_examples=40, deadline=None)
    @given(graph=graphs())
    def test_arrays_match_sorted_tuples(self, graph):
        adjacency = graph.adjacency
        rows, cols = graph.link_pairs()
        assert list(zip(rows.tolist(), cols.tolist())) == sorted(
            links_loop(adjacency)
        )
        rows, cols = graph.non_link_pairs()
        assert list(zip(rows.tolist(), cols.tolist())) == non_links_loop(
            adjacency
        )
        assert graph.n_non_links == len(non_links_loop(adjacency))
        assert graph.links() == links_loop(adjacency)
        assert graph.non_links() == non_links_loop(adjacency)

    def test_arrays_are_read_only(self):
        graph = SocialGraph(pairs_to_matrix([(0, 1)], 3))
        for rows, cols in (graph.link_pairs(), graph.non_link_pairs()):
            with pytest.raises(ValueError):
                rows[0] = 2
            with pytest.raises(ValueError):
                cols[0] = 2


class TestSampleNegativePairs:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        graph=graphs(),
        seed=st.integers(0, 2**16),
        strategy=st.sampled_from(["uniform", "two_hop"]),
    )
    def test_matches_loop(self, data, graph, seed, strategy):
        exclude = set(data.draw(pair_lists(graph.n_users)))
        n_pairs = graph.n_users * (graph.n_users - 1) // 2
        count = data.draw(st.integers(0, n_pairs + 1))
        rng, rng_loop = _generators(seed)
        got = _outcome(
            lambda: sample_negative_pairs(
                graph, count, rng, exclude=exclude, strategy=strategy
            )
        )
        expected = _outcome(
            lambda: sample_negative_pairs_loop(
                graph, count, rng_loop, exclude=exclude, strategy=strategy
            )
        )
        assert got == expected
        assert rng.bit_generator.state == rng_loop.bit_generator.state


class TestSampleLinkInstances:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        graph=graphs(),
        seed=st.integers(0, 2**16),
        n_instances=st.integers(1, 40),
    )
    def test_matches_loop(self, data, graph, seed, n_instances):
        n = graph.n_users
        forced = data.draw(pair_lists(n))
        tensor = FeatureTensor(
            np.random.default_rng(seed).normal(size=(3, n, n))
        )
        rng, rng_loop = _generators(seed)
        got = _outcome(
            lambda: sample_link_instances(
                graph, tensor, n_instances, rng, forced_pairs=forced
            )
        )
        expected = _outcome(
            lambda: sample_link_instances_loop(
                graph, tensor, n_instances, rng_loop, forced_pairs=forced
            )
        )
        if isinstance(expected, type):
            assert got is expected
        else:
            assert got.pairs == expected.pairs
            assert np.array_equal(got.labels, expected.labels)
            assert np.array_equal(got.features, expected.features)
        assert rng.bit_generator.state == rng_loop.bit_generator.state


class TestAlignSourceToTarget:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        n_target=st.integers(1, 8),
        n_source=st.integers(1, 8),
        seed=st.integers(0, 2**16),
    )
    def test_matches_loop(self, data, n_target, n_source, seed):
        # Anchors are one-to-one; some endpoints fall outside either side.
        k = data.draw(st.integers(0, min(n_target, n_source) + 2))
        targets = data.draw(
            st.lists(
                st.integers(-1, n_target), min_size=k, max_size=k, unique=True
            )
        )
        sources = data.draw(
            st.lists(
                st.integers(-1, n_source), min_size=k, max_size=k, unique=True
            )
        )
        anchors = AnchorLinks(zip(targets, sources))
        projected = FeatureTensor(
            np.random.default_rng(seed).normal(size=(2, n_source, n_source))
        )
        got = align_source_to_target(projected, anchors, n_target)
        expected = align_source_to_target_loop(projected, anchors, n_target)
        assert np.array_equal(got.values, expected.values)
        assert got.feature_names == expected.feature_names


class TestFitPathBuildsNoTupleLists:
    def test_transfer_fit_and_splits_without_non_links(
        self, monkeypatch, aligned_world_140
    ):
        """Splits and a transfer fit never list every non-link as tuples."""

        def forbidden(self):
            raise AssertionError("non_links() called on the fit path")

        monkeypatch.setattr(SocialGraph, "non_links", forbidden)
        aligned = aligned_world_140
        graph = SocialGraph.from_network(aligned.target)
        split = k_fold_link_splits(graph, n_folds=5, random_state=3)[0]
        task = TransferTask.from_aligned(
            aligned, training_graph=split.training_graph, random_state=3
        )
        model = SlamPred(inner_iterations=2, outer_iterations=2)
        model.fit(task)
        assert model._adapter is not None
        assert np.isfinite(np.asarray(model.score_matrix)).all()


@pytest.fixture(scope="module")
def aligned_world_140():
    return generate_aligned_pair(scale=140, random_state=3)
