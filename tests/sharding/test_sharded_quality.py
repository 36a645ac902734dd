"""Sharded fits at n = 5000: no held-out AUC lost, shards=1 is unsharded.

The planted graph is a sparse stochastic block model with eight
contiguous communities, so held-out links are predictable by a rank-8
estimate and the planted labels are simply ``user // block``.  Two
claims are pinned:

* merged held-out AUC at 1, 2 and 4 shards is at most 1e-2 below the
  unsharded factored fit (gains are expected: a shard spends its whole
  rank budget on one community's spectrum);
* shards=1 reproduces the unsharded factored trajectory — same factor
  arrays to 1e-8, bit for bit in practice.
"""

import warnings

import numpy as np
import pytest
from scipy import sparse

from repro.evaluation.metrics import auc_score
from repro.exceptions import TruncatedSVTWarning
from repro.models.slampred import SlamPredH
from repro.sharding.model import ShardedSlamPred

N_USERS = 5000
N_BLOCKS = 8
_FIT_KWARGS = dict(
    svd_rank=8, inner_iterations=3, outer_iterations=2, tolerance=1e-4
)


def _synthetic_adjacency(n, degree, seed, n_blocks=N_BLOCKS):
    """A sparse stochastic block model with expected degree ``degree``.

    Built block by block (never a dense n×n mask) so generation itself
    stays O(nk).  Most links live inside one of ``n_blocks`` communities;
    a fifth of the degree is uniform cross-community noise.
    """
    rng = np.random.default_rng(seed)
    block = -(-n // n_blocks)
    p_in = degree * 0.8 / block
    rows, cols = [], []
    for start in range(0, n, block):
        size = min(block, n - start)
        mask = np.triu(rng.random((size, size)) < p_in, k=1)
        r, c = np.nonzero(mask)
        rows.append(r + start)
        cols.append(c + start)
    n_cross = int(n * degree * 0.2 / 2)
    rows.append(rng.integers(0, n, n_cross))
    cols.append(rng.integers(0, n, n_cross))
    row = np.concatenate(rows)
    col = np.concatenate(cols)
    adjacency = sparse.coo_matrix(
        (np.ones(row.size), (row, col)), shape=(n, n)
    )
    adjacency = ((adjacency + adjacency.T) > 0).astype(float).tocsr()
    adjacency.setdiag(0.0)
    adjacency.eliminate_zeros()
    return adjacency


def _holdout_links(adjacency, fraction, seed):
    """Remove ``fraction`` of links; return (training, pairs, labels).

    Held-out positives are balanced against uniformly sampled non-links
    so the AUC is a standard balanced link-prediction score.
    """
    rng = np.random.default_rng(seed)
    upper = sparse.triu(adjacency, k=1).tocoo()
    n_links = upper.nnz
    held = np.zeros(n_links, dtype=bool)
    held[
        rng.choice(n_links, size=max(1, int(fraction * n_links)), replace=False)
    ] = True
    training = sparse.coo_matrix(
        (upper.data[~held], (upper.row[~held], upper.col[~held])),
        shape=adjacency.shape,
    )
    training = (training + training.T).tocsr()
    positives = list(zip(upper.row[held].tolist(), upper.col[held].tolist()))
    linked = set(zip(upper.row.tolist(), upper.col.tolist()))
    n = adjacency.shape[0]
    negatives = []
    while len(negatives) < len(positives):
        u, v = sorted(rng.integers(0, n, size=2).tolist())
        if u != v and (u, v) not in linked:
            negatives.append((u, v))
    labels = np.concatenate(
        [np.ones(len(positives)), np.zeros(len(negatives))]
    )
    return training, positives + negatives, labels


def _estimate_gap(first, second):
    """Max absolute difference between two factored estimates' factors.

    Compares the raw u/σ/vᵀ/residual arrays rather than densifying: the
    claim is about the *trajectory* (same arrays out of the same solver),
    not merely the same product.  A shape mismatch means the trajectories
    diverged structurally and reports as ``inf``.
    """
    if first.u.shape != second.u.shape or first.s.shape != second.s.shape:
        return float("inf")
    gaps = [
        float(np.abs(first.u - second.u).max()),
        float(np.abs(first.s - second.s).max()),
        float(np.abs(first.vt - second.vt).max()),
    ]
    residuals = [r for r in (first.residual, second.residual) if r is not None]
    if len(residuals) == 2:
        diff = residuals[0] - residuals[1]
        gaps.append(float(abs(diff).max()) if diff.nnz else 0.0)
    elif len(residuals) == 1:
        gaps.append(
            float(abs(residuals[0]).max()) if residuals[0].nnz else 0.0
        )
    return max(gaps)


@pytest.fixture(scope="module")
def holdout():
    adjacency = _synthetic_adjacency(N_USERS, degree=6, seed=7)
    return _holdout_links(adjacency, fraction=0.1, seed=8)


@pytest.fixture(scope="module")
def sharded_fits(holdout):
    """``{n_shards: model}`` fitted in-process on the planted labels."""
    training, _, _ = holdout
    planted = np.arange(N_USERS) // -(-N_USERS // N_BLOCKS)
    models = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncatedSVTWarning)
        for n_shards in (1, 2, 4):
            models[n_shards] = ShardedSlamPred(
                n_shards=n_shards, use_processes=False, **_FIT_KWARGS
            ).fit(training, labels=planted)
    return models


@pytest.fixture(scope="module")
def unsharded(holdout, sharded_fits):
    """The factored fit under the shard solver's seed, no dense recovery."""
    training, _, _ = holdout
    model = SlamPredH(
        factored=True,
        svt_options={
            "seed": sharded_fits[1].seed,
            "dense_fallback_cutoff": 0,
        },
        **_FIT_KWARGS,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncatedSVTWarning)
        return model.fit_adjacency(training)


@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_sharded_auc_not_below_unsharded(
    n_shards, holdout, sharded_fits, unsharded
):
    _, pairs, labels = holdout
    reference = auc_score(unsharded.score_pairs(pairs), labels)
    sharded = auc_score(sharded_fits[n_shards].score_pairs(pairs), labels)
    assert np.isfinite(sharded)
    assert reference - sharded <= 1e-2


def test_single_shard_reproduces_unsharded_factors(sharded_fits, unsharded):
    gap = _estimate_gap(
        sharded_fits[1].estimates[0], unsharded.factored_estimate
    )
    assert gap <= 1e-8
