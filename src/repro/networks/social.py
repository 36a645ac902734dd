"""Read-only social-structure view over a heterogeneous network.

Feature extractors and unsupervised predictors only need the user-user
structure.  :class:`SocialGraph` snapshots that structure into dense numpy
form once, so repeated neighborhood queries do not re-walk the link set, and
supports *masking* (hiding held-out test links) which the evaluation harness
uses to build training views.

Pairs are exposed as upper-triangle index arrays (:meth:`SocialGraph.link_pairs`,
:meth:`SocialGraph.non_link_pairs`) in sorted ``(i, j)`` order.  Samplers
draw from those arrays directly: a list of tuples over every non-link is
O(n²) Python objects, which cost more than the numerics of a fit.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.exceptions import NetworkError, UnknownNodeError
from repro.networks.heterogeneous import HeterogeneousNetwork


class SocialGraph:
    """An immutable snapshot of user-user structure.

    Parameters
    ----------
    adjacency:
        Binary symmetric adjacency matrix with zero diagonal.
    user_ids:
        Original user ids in dense-index order; defaults to ``0..n-1``.
    """

    def __init__(self, adjacency: np.ndarray, user_ids: List[int] = None):
        adjacency = np.asarray(adjacency, dtype=float)
        if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
            raise NetworkError(
                f"adjacency must be square, got shape {adjacency.shape}"
            )
        if not np.allclose(adjacency, adjacency.T):
            raise NetworkError("adjacency must be symmetric")
        if np.any(np.diag(adjacency) != 0):
            raise NetworkError("adjacency must have a zero diagonal")
        if not np.all(np.isin(adjacency, (0.0, 1.0))):
            raise NetworkError("adjacency must be binary")
        self._adjacency = adjacency.copy()
        self._adjacency.setflags(write=False)
        n = adjacency.shape[0]
        if user_ids is None:
            user_ids = list(range(n))
        if len(user_ids) != n:
            raise NetworkError(
                f"user_ids has length {len(user_ids)} but adjacency is {n}x{n}"
            )
        self._user_ids = [int(u) for u in user_ids]
        self._index = {u: i for i, u in enumerate(self._user_ids)}
        if len(self._index) != n:
            raise NetworkError("user_ids contains duplicates")
        self._link_pairs: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._non_link_pairs: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_network(cls, network: HeterogeneousNetwork) -> "SocialGraph":
        """Snapshot the social structure of a heterogeneous network."""
        return cls(network.adjacency_matrix(), network.user_ids)

    def mask_links(self, links: Iterable[Tuple[int, int]]) -> "SocialGraph":
        """Return a copy with the given links (dense-index pairs) removed.

        Used to hide the test fold: the training view must not see held-out
        links.  Raises if a requested link is absent.
        """
        adjacency = np.array(self._adjacency)
        for i, j in links:
            if adjacency[i, j] == 0:
                raise NetworkError(f"link ({i}, {j}) is not present; cannot mask")
            adjacency[i, j] = 0.0
            adjacency[j, i] = 0.0
        return SocialGraph(adjacency, self._user_ids)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def n_users(self) -> int:
        """Number of users."""
        return self._adjacency.shape[0]

    @property
    def adjacency(self) -> np.ndarray:
        """The (read-only) adjacency matrix."""
        return self._adjacency

    @property
    def user_ids(self) -> List[int]:
        """Original user ids in dense order."""
        return list(self._user_ids)

    @property
    def n_links(self) -> int:
        """Number of undirected links."""
        return int(self._adjacency.sum() // 2)

    @property
    def n_non_links(self) -> int:
        """Number of absent pairs (i < j)."""
        n = self.n_users
        return n * (n - 1) // 2 - self.n_links

    def index_of(self, user_id: int) -> int:
        """Dense index of an original user id."""
        try:
            return self._index[int(user_id)]
        except KeyError:
            raise UnknownNodeError(f"user {user_id} not in this graph") from None

    def degree(self, i: int) -> int:
        """Social degree of dense index ``i``."""
        return int(self._adjacency[i].sum())

    def degrees(self) -> np.ndarray:
        """All degrees as a vector."""
        return self._adjacency.sum(axis=1)

    def neighbors(self, i: int) -> Set[int]:
        """Dense indices of the neighbors of ``i``."""
        return set(np.flatnonzero(self._adjacency[i]).tolist())

    def link_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, cols)`` of every link with i < j, in sorted pair order.

        The arrays are computed once and shared (read-only) by every caller.
        """
        if self._link_pairs is None:
            rows, cols = np.nonzero(np.triu(self._adjacency, k=1))
            self._link_pairs = _frozen(rows, cols)
        return self._link_pairs

    def non_link_pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, cols)`` of every absent pair with i < j, in sorted order.

        The candidate set for prediction; computed once and shared
        (read-only) like :meth:`link_pairs`.
        """
        if self._non_link_pairs is None:
            rows, cols = np.triu_indices(self.n_users, k=1)
            absent = self._adjacency[rows, cols] == 0
            self._non_link_pairs = _frozen(rows[absent], cols[absent])
        return self._non_link_pairs

    def links(self) -> FrozenSet[Tuple[int, int]]:
        """All links as canonical dense-index pairs (i < j)."""
        rows, cols = self.link_pairs()
        return frozenset(zip(rows.tolist(), cols.tolist()))

    def non_links(self) -> List[Tuple[int, int]]:
        """All absent pairs (i < j) as tuples; prefer :meth:`non_link_pairs`."""
        rows, cols = self.non_link_pairs()
        return list(zip(rows.tolist(), cols.tolist()))

    def common_neighbors(self, i: int, j: int) -> Set[int]:
        """Shared neighbors of ``i`` and ``j``."""
        return self.neighbors(i) & self.neighbors(j)

    def density(self) -> float:
        """Fraction of possible links that exist."""
        n = self.n_users
        if n < 2:
            return 0.0
        return self.n_links / (n * (n - 1) / 2)

    def __repr__(self) -> str:
        return f"SocialGraph(n_users={self.n_users}, n_links={self.n_links})"


def _frozen(rows: np.ndarray, cols: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def without_pairs(
    pairs: Tuple[np.ndarray, np.ndarray],
    excluded: Iterable[Tuple[int, int]],
    n_users: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """``pairs`` (upper-triangle ``(rows, cols)``) minus ``excluded``.

    Excluded pairs count in either orientation, so ``(j, i)`` removes
    ``(i, j)``; self-pairs and pairs outside ``[0, n_users)`` match
    nothing.  Matching runs on linear codes ``i * n_users + j``, so no
    n×n mask is built.  The order of the kept pairs is unchanged.
    """
    codes = []
    for i, j in excluded:
        i, j = int(min(i, j)), int(max(i, j))
        if 0 <= i < j < n_users:
            codes.append(i * n_users + j)
    rows, cols = pairs
    if codes:
        keep = ~np.isin(rows * n_users + cols, codes)
        rows, cols = rows[keep], cols[keep]
    return rows, cols
