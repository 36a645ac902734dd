"""Loop implementations of the pair samplers, kept as test oracles.

The library draws pairs from :class:`~repro.networks.social.SocialGraph`'s
upper-triangle index arrays.  These are the tuple-list versions those
array implementations replaced, with the pair lists rebuilt here from the
adjacency by plain loops so the oracle shares no code with the arrays.
Same seed, same calls: the array versions must return the same pairs,
labels and features and leave the generator in the same state.
"""

from __future__ import annotations

from typing import List, Set, Tuple

import numpy as np

from repro.adaptation.indicators import LinkInstanceSample
from repro.exceptions import EvaluationError
from repro.features.tensor import FeatureTensor

Pair = Tuple[int, int]


def links_loop(adjacency: np.ndarray) -> Set[Pair]:
    """Every link ``(i, j)`` with i < j."""
    n = adjacency.shape[0]
    return {
        (i, j) for i in range(n) for j in range(i + 1, n) if adjacency[i, j]
    }


def non_links_loop(adjacency: np.ndarray) -> List[Pair]:
    """Every absent pair ``(i, j)`` with i < j, in sorted order."""
    n = adjacency.shape[0]
    return [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if not adjacency[i, j]
    ]


def align_source_to_target_loop(projected_source, anchors, n_target_users):
    """Anchor-pair re-indexing, one target pair at a time."""
    c = projected_source.n_features
    out = np.zeros((c, n_target_users, n_target_users))
    source_values = projected_source.values
    anchored = [
        (t, s)
        for t, s in anchors.pairs
        if 0 <= t < n_target_users and 0 <= s < projected_source.n_users
    ]
    for t_i, s_i in anchored:
        for t_j, s_j in anchored:
            if t_i == t_j:
                continue
            out[:, t_i, t_j] = source_values[:, s_i, s_j]
    return FeatureTensor(out, projected_source.feature_names)


def sample_link_instances_loop(graph, tensor, n_instances, rng, forced_pairs=()):
    """Balanced link-instance sample drawn from sorted tuple lists."""
    chosen: List[Pair] = []
    seen = set()
    for i, j in forced_pairs:
        pair = (int(min(i, j)), int(max(i, j)))
        if pair not in seen:
            seen.add(pair)
            chosen.append(pair)
    links = sorted(links_loop(graph.adjacency) - seen)
    non_links = sorted(set(non_links_loop(graph.adjacency)) - seen)
    remaining = max(0, n_instances - len(chosen))
    want_links = min(remaining // 2, len(links))
    want_non = min(remaining - want_links, len(non_links))
    if want_links:
        idx = rng.choice(len(links), size=want_links, replace=False)
        chosen.extend(links[i] for i in sorted(idx.tolist()))
    if want_non:
        idx = rng.choice(len(non_links), size=want_non, replace=False)
        chosen.extend(non_links[i] for i in sorted(idx.tolist()))
    adjacency = graph.adjacency
    labels = np.array([adjacency[i, j] for i, j in chosen], dtype=float)
    features = tensor.pair_vectors(chosen).T
    return LinkInstanceSample(chosen, labels, features)


def sample_negative_pairs_loop(
    graph, count, rng, exclude=frozenset(), strategy="uniform"
):
    """Negative pairs drawn from a filtered list of non-link tuples.

    ``exclude`` is canonicalized first, so a reversed ``(j, i)`` removes
    ``(i, j)`` from the pool.
    """
    excluded = {(min(i, j), max(i, j)) for i, j in exclude}
    pool = [p for p in non_links_loop(graph.adjacency) if p not in excluded]
    if count > len(pool):
        raise EvaluationError(
            f"requested {count} negative pairs but only {len(pool)} non-links "
            "are available"
        )
    if count == 0:
        return []
    if strategy == "two_hop":
        adjacency = graph.adjacency
        two_hop = adjacency @ adjacency
        hard = [p for p in pool if two_hop[p] > 0]
        easy = [p for p in pool if two_hop[p] == 0]
        chosen: List[Pair] = []
        n_hard = min(count, len(hard))
        if n_hard:
            idx = rng.choice(len(hard), size=n_hard, replace=False)
            chosen.extend(hard[i] for i in sorted(idx.tolist()))
        remaining = count - len(chosen)
        if remaining:
            idx = rng.choice(len(easy), size=remaining, replace=False)
            chosen.extend(easy[i] for i in sorted(idx.tolist()))
        return chosen
    idx = rng.choice(len(pool), size=count, replace=False)
    return [pool[i] for i in sorted(idx.tolist())]
