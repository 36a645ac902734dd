"""The factored inner loop's Ω-cached bookkeeping against its oracles.

Each forward-backward iteration gathers the low-rank iterate's values on
the residual support Ω once.  The update norm ``‖S_t − S_{t−1}‖_F`` and
the history norm ``‖S_t‖_F`` take their sparse terms from those values
and the residual data, kept from the step that computed them, instead
of from ``FactoredEstimate.delta_frobenius`` and ``frobenius_sq``.
The SVT counters of a fixed-budget fit are pinned to the values the
Householder range finder produced.
"""

import warnings

import numpy as np
import pytest
from scipy import sparse

from repro.factored import FactoredEstimate
from repro.models.slampred import SlamPredH
from repro.optim.convergence import ConvergenceCriterion, IterationHistory
from repro.optim.forward_backward import FactoredForwardBackwardSolver
from repro.optim.losses import FactoredSmoothObjective
from repro.optim.proximal import BoxProjection, L1Prox, TraceNormProx
from repro.perf.warm_svt import WarmStartSVT
from repro.perf.workspace import FactoredWorkspace

N = 240
ITERATIONS = 6


def _block_adjacency(n, blocks, p_in, p_out, seed):
    """A symmetric stochastic-block-model adjacency (CSR, no self-loops)."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, blocks, n)
    rows, cols = np.triu_indices(n, 1)
    keep = rng.random(rows.size) < np.where(
        labels[rows] == labels[cols], p_in, p_out
    )
    upper = sparse.coo_matrix(
        (np.ones(int(keep.sum())), (rows[keep], cols[keep])), shape=(n, n)
    )
    return (upper + upper.T).tocsr()


@pytest.fixture(scope="module")
def adjacency():
    return _block_adjacency(N, 6, 0.15, 0.01, seed=4)


def _warm_initial(adjacency):
    """A rank-3 iterate whose residual covers part of A's pattern."""
    rng = np.random.default_rng(5)
    u = rng.standard_normal((N, 3)) / np.sqrt(N)
    vt = rng.standard_normal((3, N)) / np.sqrt(N)
    residual = 0.5 * sparse.triu(adjacency, 1).tocsr()
    return FactoredEstimate(u, np.array([3.0, 2.0, 1.0]), vt, residual)


def _solve(adjacency, initial, iterations, history=None):
    """A fresh, deterministic fixed-budget inner solve."""
    proxes = [
        TraceNormProx(1.0, engine=WarmStartSVT(initial_rank=8, max_rank=8)),
        L1Prox(0.05),
        BoxProjection(0.0, None),
    ]
    # Only an update norm of exactly 0.0 falls below this tolerance.
    criterion = ConvergenceCriterion(tolerance=1e-300, max_iterations=iterations)
    solver = FactoredForwardBackwardSolver(step_size=0.05, criterion=criterion)
    objective = FactoredSmoothObjective(adjacency)
    return solver.solve(initial, objective, proxes, history=history)


@pytest.mark.parametrize("warm", [False, True], ids=["from-A", "warm"])
def test_cached_norms_match_gram_oracles(adjacency, warm):
    initial = (
        _warm_initial(adjacency) if warm
        else FactoredEstimate.from_sparse(adjacency)
    )
    history = IterationHistory()
    _solve(adjacency, initial, ITERATIONS, history=history)
    assert history.n_iterations == ITERATIONS
    previous = initial
    for record, budget in zip(history.records, range(1, ITERATIONS + 1)):
        iterate = _solve(adjacency, initial, budget)
        scale = np.sqrt(iterate.frobenius_sq())
        assert record.update_norm > 1e-3 * scale
        assert abs(
            record.update_norm - iterate.delta_frobenius(previous)
        ) <= 1e-9 * scale
        assert abs(record.variable_norm - scale) <= 1e-9 * scale
        previous = iterate


def test_workspace_gather_matches_estimate_entries(adjacency):
    estimate = _warm_initial(adjacency)
    workspace = FactoredWorkspace(adjacency)
    gathered = workspace.lowrank_entries(estimate)
    expected = estimate.lowrank_entries(workspace.rows, workspace.indices)
    assert np.array_equal(gathered, expected)


def test_residual_values_scatter_onto_omega(adjacency):
    estimate = _warm_initial(adjacency)
    workspace = FactoredWorkspace(adjacency)
    values = workspace.residual_values(estimate.residual)
    dense = estimate.residual.toarray()
    assert np.array_equal(values, dense[workspace.rows, workspace.indices])
    assert np.isclose(values.sum(), estimate.residual.sum())
    empty = workspace.residual_values(FactoredEstimate.zeros(N).residual)
    assert np.array_equal(empty, np.zeros(workspace.nnz))


@pytest.mark.parametrize(
    "n, rank, cutoff, dense_fallbacks, unverified_accepts",
    [(600, 16, 100, 0, 1), (600, 24, 2048, 1, 0)],
)
def test_fixed_budget_fit_keeps_svt_verdicts(
    n, rank, cutoff, dense_fallbacks, unverified_accepts
):
    adjacency = _block_adjacency(n, 20, 0.1, 0.005, seed=0)
    model = SlamPredH(
        factored=True,
        svd_rank=rank,
        inner_iterations=8,
        outer_iterations=2,
        svt_options={"dense_fallback_cutoff": cutoff},
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # rank-capped SVT warns by design
        model.fit_adjacency(adjacency)
    stats = model._svt_engine.stats
    assert model.result.history.n_iterations == 16
    assert stats["applies"] == 16
    assert stats["refinements"] == 55
    assert stats["dense_fallbacks"] == dense_fallbacks
    assert stats["unverified_accepts"] == unverified_accepts
