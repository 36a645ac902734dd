"""Link-instance sampling and the W_A / W_S / W_D indicator matrices.

The paper defines the indicators over *all* potential links, which is
quadratic in users and quartic in the joint matrices — intractable even at
the paper's scale.  Like the original evaluation, we work with a sampled set
of link instances per network, balanced between existing links (label 1) and
non-links (label 0).  To guarantee the aligned-link indicator ``W_A`` has
support, the source samples deliberately include the anchor-images of the
target's sampled pairs (when both endpoints are anchored) before topping up
with random source pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.exceptions import AlignmentError
from repro.features.tensor import FeatureTensor
from repro.networks.aligned import AnchorLinks
from repro.networks.social import SocialGraph, without_pairs
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_integer


@dataclass
class LinkInstanceSample:
    """Sampled link instances of one network.

    Attributes
    ----------
    pairs:
        The sampled ``(i, j)`` user index pairs (i < j).
    labels:
        Link-existence label per pair (Definition 5): 1 if the pair is a
        link in the (training) graph, else 0.
    features:
        Feature matrix ``Z^k`` of shape ``(d_k, m_k)`` — one column per
        instance, as in the paper's block matrix ``Z``.
    """

    pairs: List[Tuple[int, int]]
    labels: np.ndarray
    features: np.ndarray

    @property
    def n_instances(self) -> int:
        """Number of sampled instances ``m_k``."""
        return len(self.pairs)

    @property
    def n_features(self) -> int:
        """Feature dimensionality ``d_k``."""
        return self.features.shape[0]


def sample_link_instances(
    graph: SocialGraph,
    tensor: FeatureTensor,
    n_instances: int,
    random_state: RandomState = None,
    forced_pairs: Sequence[Tuple[int, int]] = (),
) -> LinkInstanceSample:
    """Sample a balanced set of link instances from one network.

    Parameters
    ----------
    graph:
        Training social structure supplying labels.
    tensor:
        The network's intimacy feature tensor (supplies feature columns).
    n_instances:
        Target sample size; split half/half between links and non-links
        where availability allows.
    forced_pairs:
        Pairs that must be included (used to inject anchor-images of the
        target's sample into source samples); they count toward the budget.
        Each is canonicalized to i < j and included once.
    """
    n_instances = check_integer(n_instances, "n_instances", minimum=1)
    if tensor.n_users != graph.n_users:
        raise AlignmentError(
            f"tensor covers {tensor.n_users} users but graph has {graph.n_users}"
        )
    rng = ensure_rng(random_state)
    n = graph.n_users
    chosen: List[Tuple[int, int]] = []
    seen = set()
    for i, j in forced_pairs:
        pair = (int(min(i, j)), int(max(i, j)))
        if pair not in seen:
            seen.add(pair)
            chosen.append(pair)
    remaining = max(0, n_instances - len(chosen))
    link_rows, link_cols = without_pairs(graph.link_pairs(), chosen, n)
    non_rows, non_cols = without_pairs(graph.non_link_pairs(), chosen, n)
    want_links = min(remaining // 2, link_rows.size)
    want_non = min(remaining - want_links, non_rows.size)
    for rows, cols, want in (
        (link_rows, link_cols, want_links),
        (non_rows, non_cols, want_non),
    ):
        if want:
            idx = np.sort(rng.choice(rows.size, size=want, replace=False))
            chosen.extend(zip(rows[idx].tolist(), cols[idx].tolist()))
    adjacency = graph.adjacency
    labels = np.array([adjacency[i, j] for i, j in chosen], dtype=float)
    features = tensor.pair_vectors(chosen).T  # (d, m)
    return LinkInstanceSample(chosen, labels, features)


def aligned_indicator(
    sample_a: LinkInstanceSample,
    sample_b: LinkInstanceSample,
    anchors: AnchorLinks,
) -> np.ndarray:
    """The aligned-social-link indicator ``W_A`` between two samples.

    Entry ``(p, q)`` is 1 iff both endpoints of pair ``p`` in the first
    network are anchored to the endpoints of pair ``q`` in the second
    (Definition 4).  ``anchors`` maps first-network ids to second-network ids.
    """
    p, q = aligned_matches(sample_a, sample_b, anchors)
    indicator = np.zeros((sample_a.n_instances, sample_b.n_instances))
    indicator[p, q] = 1.0
    return indicator


def aligned_matches(
    sample_a: LinkInstanceSample,
    sample_b: LinkInstanceSample,
    anchors: AnchorLinks,
) -> Tuple[np.ndarray, np.ndarray]:
    """The non-zero entries ``(p, q)`` of :func:`aligned_indicator`.

    Returned as two int arrays, so callers can hold ``W_A`` as an edge list
    instead of an ``m_a × m_b`` matrix.
    """
    image = {}
    for idx, (i, j) in enumerate(sample_a.pairs):
        a, b = anchors.map_forward(i), anchors.map_forward(j)
        if a is not None and b is not None:
            image[(min(a, b), max(a, b))] = idx
    matches = [
        (image[pair], q)
        for q, pair in enumerate(sample_b.pairs)
        if pair in image
    ]
    return (
        np.array([p for p, _ in matches], dtype=np.intp),
        np.array([q for _, q in matches], dtype=np.intp),
    )


def similar_indicator(
    sample_a: LinkInstanceSample, sample_b: LinkInstanceSample
) -> np.ndarray:
    """``W_S``: 1 where two instances share the same link-existence label."""
    return (
        sample_a.labels[:, None] == sample_b.labels[None, :]
    ).astype(float)


def dissimilar_indicator(
    sample_a: LinkInstanceSample, sample_b: LinkInstanceSample
) -> np.ndarray:
    """``W_D``: 1 where two instances have different link-existence labels."""
    return (
        sample_a.labels[:, None] != sample_b.labels[None, :]
    ).astype(float)


def build_joint_indicators(
    samples: Sequence[LinkInstanceSample],
    anchors_to_target: Sequence[AnchorLinks],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble the joint block matrices ``W_A``, ``W_S``, ``W_D``.

    Parameters
    ----------
    samples:
        Target sample first, then one sample per source (the paper's
        ordering ``L = L^t ∪ L^1 ∪ … ∪ L^K``).
    anchors_to_target:
        One anchor set per source, mapping target ids to that source's ids.
        Anchor alignment between two *sources* is derived by composing
        through the target.

    Returns
    -------
    (W_A, W_S, W_D), each of shape ``(Σ m_k, Σ m_k)`` and symmetric.
    """
    _check_anchor_count(samples, anchors_to_target)
    sizes = [s.n_instances for s in samples]
    total = sum(sizes)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    w_a = np.zeros((total, total))  # dense-ok: small sampled-instance space
    w_s = np.zeros((total, total))  # dense-ok: small sampled-instance space
    w_d = np.zeros((total, total))  # dense-ok: small sampled-instance space

    def block(matrix: np.ndarray, m: int, n: int, values: np.ndarray) -> None:
        matrix[offsets[m]:offsets[m + 1], offsets[n]:offsets[n + 1]] = values

    n_networks = len(samples)
    for m in range(n_networks):
        for n in range(n_networks):
            block(w_s, m, n, similar_indicator(samples[m], samples[n]))
            block(w_d, m, n, dissimilar_indicator(samples[m], samples[n]))
            if m == n:
                continue
            anchor = _anchor_between(m, n, anchors_to_target)
            if anchor is not None:
                block(w_a, m, n, aligned_indicator(samples[m], samples[n], anchor))
    # The diagonal of W_S would tie every instance to itself, which is vacuous
    # and dominates the Laplacian; zero the self-pairs.
    np.fill_diagonal(w_s, 0.0)
    w_a = np.maximum(w_a, w_a.T)
    return w_a, w_s, w_d


def joint_aligned_edges(
    samples: Sequence[LinkInstanceSample],
    anchors_to_target: Sequence[AnchorLinks],
) -> Tuple[np.ndarray, np.ndarray]:
    """The joint ``W_A`` of :func:`build_joint_indicators` as an edge list.

    Returns ``(rows, cols)`` over the stacked instance index
    ``0 … Σ m_k − 1``: every non-zero of the symmetric ``W_A`` exactly once,
    in both directions.  Its size is bounded by the anchor matches, not by
    ``(Σ m_k)²``.
    """
    _check_anchor_count(samples, anchors_to_target)
    offsets = np.concatenate(([0], np.cumsum([s.n_instances for s in samples])))
    rows, cols = [], []
    for m in range(len(samples)):
        for n in range(len(samples)):
            if m == n:
                continue
            anchor = _anchor_between(m, n, anchors_to_target)
            p, q = aligned_matches(samples[m], samples[n], anchor)
            # W_A = max(W_A, W_Aᵀ): each match is an undirected edge.
            rows.extend((p + offsets[m], q + offsets[n]))
            cols.extend((q + offsets[n], p + offsets[m]))
    total = int(offsets[-1])
    if not rows:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    keys = np.unique(np.concatenate(rows) * total + np.concatenate(cols))
    return keys // total, keys % total


def _check_anchor_count(
    samples: Sequence[LinkInstanceSample],
    anchors_to_target: Sequence[AnchorLinks],
) -> None:
    if len(samples) != len(anchors_to_target) + 1:
        raise AlignmentError(
            f"{len(samples)} samples need {len(samples) - 1} anchor sets, "
            f"got {len(anchors_to_target)}"
        )


def _anchor_between(
    m: int, n: int, anchors_to_target: Sequence[AnchorLinks]
):
    """Anchor map from network index ``m`` to ``n`` (0 is the target)."""
    if m == 0:
        return anchors_to_target[n - 1]
    if n == 0:
        return anchors_to_target[m - 1].reversed()
    # source-to-source alignment composed through the target
    to_target = anchors_to_target[m - 1].reversed()
    from_target = anchors_to_target[n - 1]
    pairs = []
    for source_m_user, target_user in to_target.pairs:
        source_n_user = from_target.map_forward(target_user)
        if source_n_user is not None:
            pairs.append((source_m_user, source_n_user))
    return AnchorLinks(pairs)
