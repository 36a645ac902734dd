"""The d×n×n intimacy feature tensor.

Slice ``k`` of the tensor holds the k-th intimacy feature evaluated on every
user pair of one network (the paper's ``X(k, :, :)``).  The class carries
feature names alongside the values so extracted and projected tensors stay
self-describing, and provides the handful of operations the models need:
per-slice normalization, per-pair feature vectors, slice aggregation, and
linear projection into the shared latent space.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.exceptions import FeatureError


class FeatureTensor:
    """Stack of per-pair feature matrices for one network.

    Parameters
    ----------
    values:
        Array of shape ``(d, n, n)``; each slice should be symmetric with a
        zero diagonal (pairwise scores of an undirected network).
    feature_names:
        Length-``d`` names; defaults to ``f0..f{d-1}``.
    """

    def __init__(self, values: np.ndarray, feature_names: Sequence[str] = None):
        values = np.asarray(values, dtype=float)
        if values.ndim != 3 or values.shape[1] != values.shape[2]:
            raise FeatureError(
                f"feature tensor must have shape (d, n, n), got {values.shape}"
            )
        if feature_names is None:
            feature_names = [f"f{k}" for k in range(values.shape[0])]
        feature_names = [str(name) for name in feature_names]
        if len(feature_names) != values.shape[0]:
            raise FeatureError(
                f"{len(feature_names)} names for {values.shape[0]} slices"
            )
        if len(set(feature_names)) != len(feature_names):
            raise FeatureError(f"duplicate feature names: {feature_names}")
        self._values = values
        self._names = feature_names

    # ------------------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """The raw ``(d, n, n)`` array."""
        return self._values

    @property
    def n_features(self) -> int:
        """Number of feature slices ``d``."""
        return self._values.shape[0]

    @property
    def n_users(self) -> int:
        """Matrix dimension ``n``."""
        return self._values.shape[1]

    @property
    def feature_names(self) -> List[str]:
        """Names of the slices."""
        return list(self._names)

    def slice(self, key) -> np.ndarray:
        """One ``n×n`` feature matrix, by index or by name."""
        if isinstance(key, str):
            try:
                key = self._names.index(key)
            except ValueError:
                raise FeatureError(
                    f"unknown feature {key!r}; have {self._names}"
                ) from None
        return self._values[int(key)]

    def pair_vector(self, i: int, j: int) -> np.ndarray:
        """The length-``d`` feature vector of pair ``(i, j)``."""
        return self._values[:, int(i), int(j)].copy()

    def pair_vectors(self, pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Feature vectors for many pairs, stacked as ``(len(pairs), d)``."""
        if len(pairs) == 0:
            return np.zeros((0, self.n_features))
        rows = np.array([p[0] for p in pairs], dtype=int)
        cols = np.array([p[1] for p in pairs], dtype=int)
        return self.pair_rows(rows, cols)

    def pair_rows(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """:meth:`pair_vectors` of the pairs ``zip(rows, cols)``."""
        return self._values[:, rows, cols].T.copy()

    # ------------------------------------------------------------------
    def normalized(self) -> "FeatureTensor":
        """Scale each slice by its max absolute value (no-op on zero slices).

        Puts heterogeneous feature families (counts vs cosines) on a common
        scale before projection, as the paper's features-from-[28] pipeline
        assumes.
        """
        values = self._values.copy()
        for k in range(values.shape[0]):
            peak = np.abs(values[k]).max()
            if peak > 0:
                values[k] = values[k] / peak
        return FeatureTensor(values, self._names)

    def aggregate(self, weights: Sequence[float] = None) -> np.ndarray:
        """Weighted sum of slices: ``Σ_k w_k · X(k, :, :)``.

        With unit weights this is the constant gradient ``∇v`` of the paper's
        intimacy term.
        """
        if weights is None:
            return self._values.sum(axis=0)
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.n_features,):
            raise FeatureError(
                f"weights must have shape ({self.n_features},), got {weights.shape}"
            )
        return np.tensordot(weights, self._values, axes=(0, 0))

    def project(
        self, projection: np.ndarray, names: Sequence[str] = None
    ) -> "FeatureTensor":
        """Apply a ``d×c`` linear map to every pair vector.

        Implements the paper's ``X̂(i, j, :) = Fᵀ X(i, j, :)``; returns a new
        ``(c, n, n)`` tensor in the shared latent space.
        """
        projection = np.asarray(projection, dtype=float)
        if projection.ndim != 2 or projection.shape[0] != self.n_features:
            raise FeatureError(
                f"projection must have shape ({self.n_features}, c), "
                f"got {projection.shape}"
            )
        projected = np.tensordot(projection.T, self._values, axes=(1, 0))
        if names is None:
            names = [f"latent{k}" for k in range(projection.shape[1])]
        return FeatureTensor(projected, names)

    def __repr__(self) -> str:
        return (
            f"FeatureTensor(d={self.n_features}, n={self.n_users}, "
            f"features={self._names})"
        )
