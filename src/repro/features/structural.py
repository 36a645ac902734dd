"""Structural (neighborhood-based) intimacy features.

All functions take a binary symmetric adjacency matrix and return an ``n×n``
score matrix with a zero diagonal.  These are the classical closeness scores
the paper uses both as intimacy features (Section IV-B1) and as the
unsupervised baselines PA / CN / JC.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import FeatureError
from repro.utils.matrices import is_square, zero_diagonal
from repro.utils.validation import check_in_range, check_integer


def _validated(adjacency: np.ndarray) -> np.ndarray:
    adjacency = np.asarray(adjacency, dtype=float)
    if not is_square(adjacency):
        raise FeatureError(
            f"adjacency must be square, got shape {adjacency.shape}"
        )
    return adjacency


def common_neighbors_matrix(adjacency: np.ndarray) -> np.ndarray:
    """Common-neighbor counts: ``(A²)_ij = |Γ(i) ∩ Γ(j)|``."""
    adjacency = _validated(adjacency)
    return zero_diagonal(adjacency @ adjacency)


def jaccard_matrix(adjacency: np.ndarray) -> np.ndarray:
    """Jaccard coefficient ``|Γ(i)∩Γ(j)| / |Γ(i)∪Γ(j)|`` (0 when both empty)."""
    adjacency = _validated(adjacency)
    return jaccard_from_square(adjacency, adjacency @ adjacency)


def jaccard_from_square(adjacency: np.ndarray, square: np.ndarray) -> np.ndarray:
    """:func:`jaccard_matrix` given the precomputed ``square = A @ A``.

    ``(A @ A)_ij`` is the intersection ``|Γ(i)∩Γ(j)|``.
    """
    degrees = adjacency.sum(axis=1)
    union = degrees[:, None] + degrees[None, :] - square
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = np.where(union > 0, square / union, 0.0)
    return zero_diagonal(scores)


def adamic_adar_matrix(adjacency: np.ndarray) -> np.ndarray:
    """Adamic-Adar: ``Σ_{z ∈ Γ(i)∩Γ(j)} 1 / log |Γ(z)|``.

    Neighbors of degree <= 1 contribute nothing (their log is undefined or
    zero), matching the usual convention.
    """
    adjacency = _validated(adjacency)
    degrees = adjacency.sum(axis=1)
    weights = np.zeros_like(degrees)
    mask = degrees > 1
    weights[mask] = 1.0 / np.log(degrees[mask])
    weighted = adjacency * weights[None, :]
    return zero_diagonal(weighted @ adjacency)


def resource_allocation_matrix(adjacency: np.ndarray) -> np.ndarray:
    """Resource allocation: ``Σ_{z ∈ Γ(i)∩Γ(j)} 1 / |Γ(z)|``."""
    adjacency = _validated(adjacency)
    degrees = adjacency.sum(axis=1)
    weights = np.zeros_like(degrees)
    mask = degrees > 0
    weights[mask] = 1.0 / degrees[mask]
    weighted = adjacency * weights[None, :]
    return zero_diagonal(weighted @ adjacency)


def preferential_attachment_matrix(adjacency: np.ndarray) -> np.ndarray:
    """Preferential attachment: ``|Γ(i)| · |Γ(j)|``."""
    adjacency = _validated(adjacency)
    degrees = adjacency.sum(axis=1)
    return zero_diagonal(np.outer(degrees, degrees))


def katz_matrix(
    adjacency: np.ndarray, beta: float = 0.05, max_length: int = 4
) -> np.ndarray:
    """Truncated Katz index: ``Σ_{ℓ=1..L} βˡ (Aˡ)_ij``.

    Parameters
    ----------
    beta:
        Path damping factor in ``(0, 1)``.
    max_length:
        Longest path length counted (the truncation ``L``).
    """
    adjacency = _validated(adjacency)
    square = adjacency @ adjacency if max_length > 1 else None
    return katz_from_square(adjacency, square, beta, max_length)


def katz_from_square(
    adjacency: np.ndarray,
    square,
    beta: float = 0.05,
    max_length: int = 4,
) -> np.ndarray:
    """:func:`katz_matrix` given the precomputed ``square = A @ A``.

    ``square`` is only read when ``max_length > 1`` (pass ``None`` otherwise).
    """
    beta = check_in_range(beta, "beta", 0.0, 1.0, inclusive=False)
    max_length = check_integer(max_length, "max_length", minimum=1)
    scores = np.zeros_like(adjacency)
    damping = 1.0
    for length in range(1, max_length + 1):
        if length == 1:
            power = adjacency
        elif length == 2:
            power = square
        else:
            power = power @ adjacency
        damping *= beta
        scores = scores + damping * power
    return zero_diagonal(scores)
