"""Candidate sources: the part of serving that differs per artifact kind.

:class:`~repro.serving.service.LinkPredictionService` owns what every
artifact shares (cache, reload, breakers, degraded switching, batching,
stats) and asks the served artifact's *candidate source* for the rest.
Each loaded artifact builds its own (``LoadedArtifact.candidates``,
``LoadedShardedArtifact.candidates``), so the service never branches on
artifact kind.  A source answers ``score(u, v)`` and
``rank(users, ks) -> (rankings, complete)`` — rankings best first with
the user and its known links excluded; the service caches only complete
answers — adds its own ``stats()`` fields, and says whether it is
``cacheable`` at all.  The four sources are :class:`DenseCandidates`,
:class:`FactoredCandidates`,
:class:`~repro.sharding.gather.ScatterGather` and the degraded tier's
:class:`~repro.serving.degraded.CommonNeighborScorer`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy import sparse

Ranking = List[Tuple[int, float]]
"""A top-k answer: ``(candidate index, score)`` pairs, best first."""


class _MaskedRows:
    """Shared scoring and ranking over masked candidate rows.

    Subclasses provide ``rows(users)`` and ``row(user)``: score rows with
    ``-inf`` written over the user itself and every known link, so
    ranking is one vectorized ``argpartition`` per row.
    """

    cacheable = True

    def __init__(self, predictor):
        self.predictor = predictor

    def score(self, u: int, v: int) -> float:
        """The predictor's raw confidence for ``(u, v)`` (never densifies)."""
        return float(self.predictor.score_pairs([(u, v)])[0])

    def rank(
        self, users: Sequence[int], ks: Sequence[int]
    ) -> Tuple[List[Ranking], bool]:
        """Rankings for ``users`` at per-request ``ks``; always complete."""
        if len(users) == 1:
            return [rank_row(self.row(users[0]), ks[0])], True
        return rank_rows(self.rows(users), ks), True

    def stats(self) -> Dict:
        """No fields beyond the service's own."""
        return {}


class DenseCandidates(_MaskedRows):
    """A copy of the dense score matrix, pre-masked once at install.

    ``-inf`` goes over the diagonal and every known link of the optional
    ``adjacency`` (dense or scipy sparse).
    """

    def __init__(self, predictor, adjacency=None):
        super().__init__(predictor)
        candidates = np.array(predictor.score_matrix, dtype=float)
        if adjacency is not None:
            if sparse.issparse(adjacency):
                # Sparse published graphs (the streaming pipeline's
                # shape) mask via coordinates — no dense expansion.
                coo = adjacency.tocoo()
                known = coo.data > 0
                candidates[coo.row[known], coo.col[known]] = -np.inf
            else:
                candidates[adjacency > 0] = -np.inf
        np.fill_diagonal(candidates, -np.inf)
        self.matrix = candidates

    def row(self, user: int) -> np.ndarray:
        """One user's masked candidate row (a view, no copy)."""
        return self.matrix[user]

    def rows(self, users: Sequence[int]) -> np.ndarray:
        """The masked candidate rows of ``users`` (a copy)."""
        return self.matrix[list(users)]


class FactoredCandidates(_MaskedRows):
    """On-demand masked candidate rows backed by a factored estimate.

    The factored analogue of the dense pre-masked candidate matrix: each
    requested row is computed from the O(nk) factors — ``(u_i ∘ σ) Vᵀ``
    plus the CSR residual row, clipped at zero to match the factored
    scoring convention — and ``-inf`` is written over the diagonal entry
    and every already-known link before ranking sees it.  Nothing n×n is
    ever resident; each query touches O(n) per requested row.
    """

    def __init__(self, predictor, adjacency=None):
        super().__init__(predictor)
        self.estimate = predictor.factored_estimate
        self._known = None
        if adjacency is not None:
            # Keep only positive entries so explicit zeros never mask.
            self._known = (sparse.csr_matrix(adjacency) > 0).tocsr()

    def rows(self, users: Sequence[int]) -> np.ndarray:
        """The masked candidate rows of ``users``."""
        users = np.asarray(users, dtype=int)
        rows = self.estimate.rows(users)
        np.maximum(rows, 0.0, out=rows)
        known = self._known
        for offset, user in enumerate(users):
            if known is not None:
                start, end = known.indptr[user], known.indptr[user + 1]
                rows[offset, known.indices[start:end]] = -np.inf
            rows[offset, user] = -np.inf
        return rows

    def row(self, user: int) -> np.ndarray:
        """One user's masked candidate row."""
        return self.rows([user])[0]


def rank_row(row: np.ndarray, k: int) -> Ranking:
    """Rank one candidate row: finite entries only, best first."""
    finite = np.flatnonzero(np.isfinite(row))
    if finite.size == 0:
        return []
    kth = min(k, finite.size)
    top = finite[np.argpartition(-row[finite], kth - 1)[:kth]]
    top = top[np.argsort(-row[top], kind="stable")]
    return [(int(j), float(row[j])) for j in top]


def rank_rows(rows: np.ndarray, ks: Sequence[int]) -> List[Ranking]:
    """Rank a stack of candidate rows in two vectorized passes.

    One ``argpartition`` narrows every row to its top ``max(ks)``
    columns, one ``axis=1`` stable argsort orders all of them together;
    the only per-row work left is materializing the output lists, each
    trimmed to its own request's ``k``.  -inf (masked) entries sort last
    and are dropped per row.
    """
    kth = min(max(ks), rows.shape[1])
    part = np.argpartition(-rows, kth - 1, axis=1)[:, :kth]
    values = np.take_along_axis(rows, part, axis=1)
    order = np.argsort(-values, axis=1, kind="stable")
    cols = np.take_along_axis(part, order, axis=1)
    values = np.take_along_axis(values, order, axis=1)
    finite = np.isfinite(values)
    rankings: List[Ranking] = []
    for row_cols, row_values, row_finite, limit in zip(
        cols, values, finite, ks
    ):
        row_cols = row_cols[row_finite][:limit]
        row_values = row_values[row_finite][:limit]
        rankings.append(
            [(int(j), float(v)) for j, v in zip(row_cols, row_values)]
        )
    return rankings
