"""Textual (word-usage) intimacy features.

Users who write about the same things use overlapping vocabulary.  Each user
gets a bag-of-words vector over the network's vocabulary, optionally IDF
weighted; pairs are scored by cosine similarity.
"""

from __future__ import annotations

import numpy as np

from repro.features.spatial import cosine_similarity_matrix
from repro.networks.heterogeneous import HeterogeneousNetwork


def user_word_counts(network: HeterogeneousNetwork) -> np.ndarray:
    """User-by-word usage counts ``(n_users, n_words)``.

    Columns follow sorted word-id order over the words actually used in the
    network's posts.
    """
    user_index = network.user_index()
    word_ids = sorted(
        {word for post in network.posts() for word in post.word_ids}
    )
    word_index = {wid: i for i, wid in enumerate(word_ids)}
    counts = np.zeros((network.n_users, len(word_ids)))
    for post in network.posts():
        row = user_index[post.author_id]
        for word in post.word_ids:
            counts[row, word_index[word]] += 1
    return counts


def idf_weights(counts: np.ndarray) -> np.ndarray:
    """Smoothed inverse user frequency per word: ``log(1 + n / (1 + df))``."""
    n_users = counts.shape[0]
    document_frequency = (counts > 0).sum(axis=0)
    return np.log(1.0 + n_users / (1.0 + document_frequency))


def word_usage_similarity(
    network: HeterogeneousNetwork, use_idf: bool = True
) -> np.ndarray:
    """Cosine similarity of (optionally IDF-weighted) word profiles."""
    return word_similarity_from_counts(user_word_counts(network), use_idf)


def word_similarity_from_counts(
    counts: np.ndarray, use_idf: bool = True
) -> np.ndarray:
    """:func:`word_usage_similarity` given the :func:`user_word_counts`."""
    if counts.shape[1] == 0:
        return np.zeros((counts.shape[0], counts.shape[0]))
    if use_idf:
        counts = counts * idf_weights(counts)[None, :]
    return cosine_similarity_matrix(counts)
