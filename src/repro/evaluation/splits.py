"""K-fold link splits and negative sampling.

Following Section IV-B1: existing target links are partitioned into 5 folds;
each fold in turn becomes the hidden test set while the rest train the
model.  Test instances are the hidden links (positives) plus an equal number
of sampled never-existing pairs (negatives).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

import numpy as np

from repro.exceptions import EvaluationError
from repro.networks.social import SocialGraph, without_pairs
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_integer

Pair = Tuple[int, int]


@dataclass
class LinkSplit:
    """One train/test partition of a network's links.

    Attributes
    ----------
    training_graph:
        The social structure with the test links masked.
    test_links:
        The hidden positive pairs.
    test_non_links:
        Sampled negative pairs (never links in the full graph).
    """

    training_graph: SocialGraph
    test_links: List[Pair]
    test_non_links: List[Pair]

    @property
    def test_pairs(self) -> List[Pair]:
        """Positives followed by negatives."""
        return list(self.test_links) + list(self.test_non_links)

    @property
    def test_labels(self) -> np.ndarray:
        """Binary labels aligned with :attr:`test_pairs`."""
        return np.concatenate(
            [np.ones(len(self.test_links)), np.zeros(len(self.test_non_links))]
        )


def sample_negative_pairs(
    graph: SocialGraph,
    count: int,
    random_state: RandomState = None,
    exclude: Iterable[Pair] = frozenset(),
    strategy: str = "uniform",
) -> List[Pair]:
    """Sample ``count`` non-link pairs without replacement.

    Parameters
    ----------
    strategy:
        ``"uniform"`` draws from all non-links; ``"two_hop"`` draws from
        non-linked pairs that share at least one neighbor — the *hard*
        negatives most likely to be confused with true links, giving a more
        demanding evaluation.  When the two-hop pool is too small it is
        topped up uniformly.
    exclude:
        Extra pairs removed from the candidate pool (e.g. pairs already
        used by another fold), in either orientation.

    Raises :class:`EvaluationError` when the pool is too small.
    """
    rows, cols = sample_negative_arrays(
        graph, count, random_state, exclude, strategy
    )
    return list(zip(rows.tolist(), cols.tolist()))


def sample_negative_arrays(
    graph: SocialGraph,
    count: int,
    random_state: RandomState = None,
    exclude: Iterable[Pair] = frozenset(),
    strategy: str = "uniform",
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`sample_negative_pairs` as ``(rows, cols)`` index arrays.

    Draws from :meth:`SocialGraph.non_link_pairs` in its sorted order, so
    the pairs and the generator's state match a draw over the sorted list
    of non-link tuples.
    """
    count = check_integer(count, "count", minimum=0)
    if strategy not in ("uniform", "two_hop"):
        raise EvaluationError(
            f"unknown negative-sampling strategy {strategy!r}; "
            "use 'uniform' or 'two_hop'"
        )
    rng = ensure_rng(random_state)
    rows, cols = without_pairs(graph.non_link_pairs(), exclude, graph.n_users)
    if count > rows.size:
        raise EvaluationError(
            f"requested {count} negative pairs but only {rows.size} non-links "
            "are available"
        )
    if count == 0:
        return rows[:0], cols[:0]
    if strategy == "uniform":
        idx = _draw(rng, rows.size, count)
        return rows[idx], cols[idx]
    adjacency = graph.adjacency
    hard = (adjacency @ adjacency)[rows, cols] > 0
    (hard_idx,) = np.nonzero(hard)
    (easy_idx,) = np.nonzero(~hard)
    n_hard = min(count, hard_idx.size)
    idx = np.concatenate(
        [
            hard_idx[_draw(rng, hard_idx.size, n_hard)],
            easy_idx[_draw(rng, easy_idx.size, count - n_hard)],
        ]
    )
    return rows[idx], cols[idx]


def _draw(rng, n: int, size: int) -> np.ndarray:
    """``size`` sorted indices drawn from ``range(n)`` without replacement.

    ``size == 0`` makes no draw, so the generator state is left alone.
    """
    if size == 0:
        return np.zeros(0, dtype=int)
    return np.sort(rng.choice(n, size=size, replace=False))


def k_fold_link_splits(
    graph: SocialGraph,
    n_folds: int = 5,
    negative_ratio: float = 1.0,
    random_state: RandomState = None,
    negative_strategy: str = "uniform",
) -> List[LinkSplit]:
    """Partition the graph's links into ``n_folds`` train/test splits.

    Parameters
    ----------
    graph:
        The full (unmasked) social structure.
    n_folds:
        Number of folds (the paper uses 5).
    negative_ratio:
        Test negatives sampled per test positive.
    random_state:
        Seed; folds and negative samples are reproducible.
    negative_strategy:
        Negative sampling strategy (see :func:`sample_negative_pairs`);
        ``"two_hop"`` yields a harder evaluation.

    Notes
    -----
    Negatives are sampled from pairs that are non-links in the *full*
    graph, so no test negative is secretly a hidden positive of any fold.
    """
    n_folds = check_integer(n_folds, "n_folds", minimum=2)
    if negative_ratio <= 0:
        raise EvaluationError(
            f"negative_ratio must be positive, got {negative_ratio}"
        )
    rng = ensure_rng(random_state)
    rows, cols = graph.link_pairs()
    links = list(zip(rows.tolist(), cols.tolist()))
    if len(links) < n_folds:
        raise EvaluationError(
            f"cannot make {n_folds} folds from {len(links)} links"
        )
    order = rng.permutation(len(links))
    fold_assignment = np.arange(len(links)) % n_folds
    splits = []
    for fold in range(n_folds):
        test_idx = order[fold_assignment == fold]
        test_links = [links[i] for i in sorted(test_idx.tolist())]
        training_graph = graph.mask_links(test_links)
        n_negative = int(round(len(test_links) * negative_ratio))
        negatives = sample_negative_pairs(
            graph, n_negative, rng, strategy=negative_strategy
        )
        splits.append(LinkSplit(training_graph, test_links, negatives))
    return splits
