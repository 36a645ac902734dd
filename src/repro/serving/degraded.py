"""Degraded-tier scorer: cheap structural answers when the model is sick.

When artifact reloads or streaming refits fail repeatedly, the serving
layer should keep answering *something* rather than 5xx-ing — but the
installed model may be arbitrarily stale, and during a prolonged outage
even installing one may be impossible.  The degraded tier is the last
rung of that ladder: a :class:`CommonNeighborScorer` built from nothing
but the published adjacency, serving the classic common-neighbor count
(the unweighted LinkProp/CN baseline every link-prediction survey uses as
its floor).  It needs no factors, no SVD and no solver — one sparse
row-matvec per query — so it survives any failure mode that leaves the
graph readable.

:class:`~repro.serving.service.LinkPredictionService` engages it in two
ways (see DESIGN.md §16.5):

* automatically, while its reload circuit breaker is **open** — repeated
  reload failures mean the store is misbehaving and the installed model's
  age is unbounded;
* explicitly, via :meth:`LinkPredictionService.engage_degraded`, which
  the streaming pipeline calls when *its* refit breaker opens.

The scorer is a candidate source (:mod:`repro.serving.candidates`) like
the model's own, but not a cacheable one: its answers bypass the
version-keyed ranking cache (they are not model answers and must never
be cached as such).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.exceptions import ConfigurationError
from repro.serving.candidates import Ranking, rank_row


class CommonNeighborScorer:
    """Rank candidate links by common-neighbor count over a fixed graph.

    Parameters
    ----------
    adjacency:
        The known-link structure (dense array or scipy sparse); any
        positive entry is an edge.  Stored as a binary CSR.

    Examples
    --------
    >>> import numpy as np
    >>> adj = np.array([[0, 1, 1, 0], [1, 0, 1, 0], [1, 1, 0, 1], [0, 0, 1, 0]])
    >>> scorer = CommonNeighborScorer(adj)
    >>> scorer.top_k(0, k=1)  # 0 and 3 share the neighbor 2
    [(3, 1.0)]
    """

    cacheable = False

    def __init__(self, adjacency):
        known = sparse.csr_matrix(adjacency)
        if known.shape[0] != known.shape[1]:
            raise ConfigurationError(
                f"adjacency must be square, got {known.shape}"
            )
        self._known = (known > 0).tocsr().astype(float)
        self.n_users = int(known.shape[0])

    def score(self, u: int, v: int) -> float:
        """Number of neighbors ``u`` and ``v`` share (O(deg) per call)."""
        row_u = self._known.getrow(int(u))
        row_v = self._known.getrow(int(v))
        return float(row_u.multiply(row_v).sum())

    def _candidate_rows(self, users: np.ndarray) -> np.ndarray:
        """Common-neighbor counts with self and known links masked out."""
        rows = np.asarray(
            (self._known[users] @ self._known).todense(), dtype=float
        )
        for offset, user in enumerate(users):
            start, end = self._known.indptr[user], self._known.indptr[user + 1]
            rows[offset, self._known.indices[start:end]] = -np.inf
            rows[offset, user] = -np.inf
        return rows

    def top_k(self, user: int, k: int = 10) -> Ranking:
        """Best ``k`` unlinked candidates for ``user`` by shared neighbors."""
        return self.rank([user], [k])[0][0]

    def rank(
        self, users: Sequence[int], ks: Sequence[int]
    ) -> Tuple[List[Ranking], bool]:
        """Per-request ``k`` rankings in one sparse matmul pass.

        Candidates sharing no neighbor are dropped.  The answers are
        never *complete* in the candidate-source sense: they stand in
        for the model's, so the service must not cache them.
        """
        rows = self._candidate_rows(np.asarray(list(users), dtype=int))
        rows[rows <= 0] = -np.inf
        return [rank_row(row, int(k)) for row, k in zip(rows, ks)], False
