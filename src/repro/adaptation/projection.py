"""Solving the joint mapping-function inference (Theorem 1).

Minimizing ``(Cost_A + Cost_S) / Cost_D`` over linear maps amounts to the
generalized eigenproblem::

    Z(μL_A + L_S)Zᵀ x = λ Z L_D Zᵀ x

where ``Z`` is the block-diagonal matrix of per-network feature columns.
The projection matrix ``F`` stacks the ``c`` generalized eigenvectors with
the smallest non-zero eigenvalues; splitting ``F`` by network blocks yields
the per-network maps ``F^t, F^1, …, F^K``.

Both sides are only ``(Σ d_k) × (Σ d_k)``, and :func:`quadratic_forms`
builds them in closed form in O(Σ m_k · (Σ d_k)²) without any
``(Σ m_k) × (Σ m_k)`` indicator or Laplacian: ``Z L Zᵀ = Z diag(deg) Zᵀ −
Z W Zᵀ``, where ``W_S`` and ``W_D`` are sums of per-label-class outer
products and ``W_A`` is a sparse edge list of anchor matches.
:func:`~repro.adaptation.indicators.build_joint_indicators` and
:func:`~repro.adaptation.laplacian.laplacian_matrix` remain the dense
definitions the closed form is tested against.

Both sides are made numerically symmetric positive semi-definite before the
solve, and a small ridge is added to the right-hand side (``Z L_D Zᵀ`` can be
rank-deficient when the sampled instances don't span the feature space).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
import scipy.linalg

from repro.exceptions import AlignmentError
from repro.adaptation.indicators import LinkInstanceSample, joint_aligned_edges
from repro.networks.aligned import AnchorLinks
from repro.utils.validation import check_integer, check_non_negative


@dataclass
class ProjectionResult:
    """The inferred per-network projection matrices.

    Attributes
    ----------
    projections:
        ``F^k`` for each network (target first), each of shape ``(d_k, c)``.
    eigenvalues:
        The ``c`` selected generalized eigenvalues (ascending).
    """

    projections: List[np.ndarray]
    eigenvalues: np.ndarray

    @property
    def latent_dimension(self) -> int:
        """The shared latent dimension ``c``."""
        return self.projections[0].shape[1]


def solve_projections(
    samples: Sequence[LinkInstanceSample],
    anchors_to_target: Sequence[AnchorLinks],
    latent_dimension: int,
    mu: float = 1.0,
    ridge: float = 1e-8,
    zero_tolerance: float = 1e-10,
) -> ProjectionResult:
    """Infer the projection matrices ``F^k`` from sampled link instances.

    Parameters
    ----------
    samples:
        Target sample first, then one per source.
    anchors_to_target:
        Anchor links from the target to each source.
    latent_dimension:
        The shared dimension ``c``.
    mu:
        Weight of the anchor-alignment cost (the paper uses μ = 1.0).
    ridge:
        Ridge added to the right-hand side for numerical definiteness.
    zero_tolerance:
        Eigenvalues below this are treated as the theorem's "zero"
        eigenvalues and skipped.
    """
    latent_dimension = check_integer(latent_dimension, "latent_dimension", minimum=1)
    mu = check_non_negative(mu, "mu")
    ridge = check_non_negative(ridge, "ridge")
    dims = [s.n_features for s in samples]
    total_dim = sum(dims)
    if latent_dimension > total_dim:
        raise AlignmentError(
            f"latent_dimension ({latent_dimension}) exceeds the stacked "
            f"feature dimension ({total_dim})"
        )
    left, right = quadratic_forms(samples, anchors_to_target, mu)
    left = (left + left.T) / 2.0
    right = (right + right.T) / 2.0 + ridge * np.eye(total_dim)
    eigenvalues, eigenvectors = scipy.linalg.eigh(left, right)
    order = np.argsort(eigenvalues)
    selected = [
        idx for idx in order if eigenvalues[idx] > zero_tolerance
    ][:latent_dimension]
    if len(selected) < latent_dimension:
        # Fall back to the smallest eigenvalues regardless of the zero cut
        # (happens when the left-hand side is itself near-singular).
        selected = list(order[:latent_dimension])
    chosen = eigenvectors[:, selected]
    eigvals = eigenvalues[selected]
    projections = []
    offset = 0
    for dim in dims:
        projections.append(chosen[offset:offset + dim, :].copy())
        offset += dim
    return ProjectionResult(projections=projections, eigenvalues=eigvals)


def quadratic_forms(
    samples: Sequence[LinkInstanceSample],
    anchors_to_target: Sequence[AnchorLinks],
    mu: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """The pencil ``(Z(μL_A + L_S)Zᵀ, Z L_D Zᵀ)`` of Theorem 1, in closed form.

    With ``1_c`` the indicator of the instances whose label is ``c``,
    ``n_u`` the size of instance ``u``'s label class and ``M = Σ m_k``:

    * ``W_S = Σ_c 1_c 1_cᵀ − I``, so ``Z L_S Zᵀ = Z diag(n) Zᵀ − Σ_c
      (Z1_c)(Z1_c)ᵀ``;
    * ``W_D = 11ᵀ − Σ_c 1_c 1_cᵀ``, so ``Z L_D Zᵀ = Z diag(M − n) Zᵀ −
      (Z1)(Z1)ᵀ + Σ_c (Z1_c)(Z1_c)ᵀ``;
    * ``W_A`` is the edge list ``(r, s)`` of
      :func:`~repro.adaptation.indicators.joint_aligned_edges`, so ``Z L_A
      Zᵀ = Z diag(deg_A) Zᵀ − Z[:, r] Z[:, s]ᵀ``.

    Equal to the dense ``Z L Zᵀ`` products of the indicator Laplacians up to
    rounding; nothing quadratic in ``M`` is allocated.
    """
    rows, cols = joint_aligned_edges(samples, anchors_to_target)
    z = _block_diagonal_features(samples)
    n_total = z.shape[1]
    labels = np.concatenate([s.labels for s in samples])
    classes, class_of, class_sizes = np.unique(
        labels, return_inverse=True, return_counts=True
    )
    same_class = class_sizes[class_of].astype(float)
    class_sums = z @ (class_of[:, None] == np.arange(classes.size))  # Z 1_c
    within = class_sums @ class_sums.T
    total = z.sum(axis=1)
    degree_a = np.bincount(rows, minlength=n_total)
    left = (
        (z * (mu * degree_a + same_class)) @ z.T
        - mu * (z[:, rows] @ z[:, cols].T)
        - within
    )
    right = (z * (n_total - same_class)) @ z.T - np.outer(total, total) + within
    return left, right


def _block_diagonal_features(
    samples: Sequence[LinkInstanceSample],
) -> np.ndarray:
    """The paper's block matrix ``Z`` ((Σ d_k) × (Σ m_k))."""
    dims = [s.n_features for s in samples]
    sizes = [s.n_instances for s in samples]
    z = np.zeros((sum(dims), sum(sizes)))
    row, col = 0, 0
    for sample in samples:
        z[row:row + sample.n_features, col:col + sample.n_instances] = (
            sample.features
        )
        row += sample.n_features
        col += sample.n_instances
    return z
