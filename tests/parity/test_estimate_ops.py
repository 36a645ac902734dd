"""Property tests: every FactoredEstimate op agrees with its dense form.

The factored representation ``U diag(σ) Vᵀ + R`` is only trustworthy if
each primitive — products, row/entry reads, norms, deltas — matches the
dense matrix it stands for to well under the harness tolerance (1e-8)
across random shapes, ranks and sparsity patterns.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.factored import FactoredEstimate

TOL = 1e-8


def _close(actual, expected):
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = 1.0 + (np.max(np.abs(expected)) if expected.size else 0.0)
    assert actual.shape == expected.shape
    if actual.size:
        assert np.max(np.abs(actual - expected)) <= TOL * scale


@st.composite
def factored_estimates(draw, max_n=16, max_rank=4):
    """A random estimate spanning rank 0..4 and sparsity 0..40%."""
    n = draw(st.integers(3, max_n))
    rank = draw(st.integers(0, min(max_rank, n - 1)))
    density = draw(st.sampled_from([0.0, 0.1, 0.3]))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n, rank))
    s = rng.uniform(0.25, 2.0, rank)
    vt = rng.standard_normal((rank, n))
    residual = sparse.random(
        n, n, density=density, format="csr", random_state=rng
    )
    return FactoredEstimate(u, s, vt, residual)


class TestProducts:
    @settings(max_examples=40)
    @given(factored_estimates(), st.integers(0, 2**31 - 1))
    def test_to_dense_definition(self, estimate, seed):
        dense = (estimate.u * estimate.s) @ estimate.vt + np.asarray(
            estimate.residual.todense()
        )
        _close(estimate.to_dense(), dense)

    @settings(max_examples=40)
    @given(factored_estimates(), st.integers(0, 2**31 - 1))
    def test_matmat_matches_dense(self, estimate, seed):
        rng = np.random.default_rng(seed)
        block = rng.standard_normal((estimate.n_users, 3))
        _close(estimate.matmat(block), estimate.to_dense() @ block)

    @settings(max_examples=40)
    @given(factored_estimates(), st.integers(0, 2**31 - 1))
    def test_rmatmat_matches_dense(self, estimate, seed):
        rng = np.random.default_rng(seed)
        block = rng.standard_normal((estimate.n_users, 3))
        _close(estimate.rmatmat(block), estimate.to_dense().T @ block)


class TestReads:
    @settings(max_examples=40)
    @given(factored_estimates(), st.integers(0, 2**31 - 1))
    def test_rows_match_dense(self, estimate, seed):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, estimate.n_users, size=4)
        _close(estimate.rows(rows), estimate.to_dense()[rows])

    @settings(max_examples=40)
    @given(factored_estimates(), st.integers(0, 2**31 - 1))
    def test_entries_match_dense(self, estimate, seed):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, estimate.n_users, size=6)
        cols = rng.integers(0, estimate.n_users, size=6)
        _close(estimate.entries(rows, cols), estimate.to_dense()[rows, cols])

    @settings(max_examples=40)
    @given(factored_estimates(), st.integers(0, 2**31 - 1))
    def test_lowrank_entries_ignore_residual(self, estimate, seed):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, estimate.n_users, size=6)
        cols = rng.integers(0, estimate.n_users, size=6)
        lowrank = (estimate.u * estimate.s) @ estimate.vt
        _close(estimate.lowrank_entries(rows, cols), lowrank[rows, cols])

    @settings(max_examples=40)
    @given(factored_estimates(), st.integers(0, 2**31 - 1))
    def test_lowrank_entries_same_bits_for_few_and_many(self, estimate, seed):
        # Fewer entries than rows and at least as many take different
        # gathers; an entry must not change with the size of its batch.
        rng = np.random.default_rng(seed)
        n = estimate.n_users
        rows = rng.integers(0, n, size=2 * n)
        cols = rng.integers(0, n, size=2 * n)
        many = estimate.lowrank_entries(rows, cols)
        few = estimate.lowrank_entries(rows[: n - 1], cols[: n - 1])
        assert np.array_equal(few, many[: n - 1])
        out = np.full(2 * n, np.nan)
        assert estimate.lowrank_entries(rows, cols, out=out) is out
        assert np.array_equal(out, many)


class TestAlgebra:
    @settings(max_examples=40)
    @given(factored_estimates(), st.floats(-2.0, 2.0))
    def test_scaled(self, estimate, alpha):
        _close(estimate.scaled(alpha).to_dense(), alpha * estimate.to_dense())

    @settings(max_examples=40)
    @given(factored_estimates(), st.integers(0, 2**31 - 1))
    def test_with_residual_swaps_sparse_block(self, estimate, seed):
        rng = np.random.default_rng(seed)
        n = estimate.n_users
        replacement = sparse.random(
            n, n, density=0.2, format="csr", random_state=rng
        )
        swapped = estimate.with_residual(replacement)
        lowrank = (estimate.u * estimate.s) @ estimate.vt
        _close(
            swapped.to_dense(),
            lowrank + np.asarray(replacement.todense()),
        )

    @settings(max_examples=40)
    @given(factored_estimates())
    def test_frobenius_sq(self, estimate):
        expected = float(np.sum(estimate.to_dense() ** 2))
        assert abs(estimate.frobenius_sq() - expected) <= TOL * (1 + expected)

    @settings(max_examples=40)
    @given(factored_estimates())
    def test_lowrank_frobenius_sq(self, estimate):
        lowrank = (estimate.u * estimate.s) @ estimate.vt
        expected = float(np.sum(lowrank**2))
        assert (
            abs(estimate.lowrank_frobenius_sq() - expected)
            <= TOL * (1 + expected)
        )

    @settings(max_examples=25)
    @given(factored_estimates(), st.integers(0, 2**31 - 1))
    def test_delta_frobenius(self, estimate, seed):
        rng = np.random.default_rng(seed)
        n, rank = estimate.n_users, 2
        other = FactoredEstimate(
            rng.standard_normal((n, rank)),
            rng.uniform(0.25, 2.0, rank),
            rng.standard_normal((rank, n)),
            sparse.random(n, n, density=0.2, format="csr", random_state=rng),
        )
        expected = float(
            np.linalg.norm(estimate.to_dense() - other.to_dense())
        )
        assert abs(estimate.delta_frobenius(other) - expected) <= TOL * (
            1 + expected
        )

    @settings(max_examples=25)
    @given(factored_estimates(), st.integers(0, 2**31 - 1))
    def test_lowrank_inner_sparse(self, estimate, seed):
        rng = np.random.default_rng(seed)
        n = estimate.n_users
        matrix = sparse.random(
            n, n, density=0.3, format="csr", random_state=rng
        )
        lowrank = (estimate.u * estimate.s) @ estimate.vt
        expected = float(np.sum(lowrank * np.asarray(matrix.todense())))
        assert abs(estimate.lowrank_inner_sparse(matrix) - expected) <= TOL * (
            1 + abs(expected)
        )


class TestConstructors:
    def test_zeros(self):
        estimate = FactoredEstimate.zeros(5)
        assert estimate.rank == 0
        assert estimate.residual_nnz == 0
        _close(estimate.to_dense(), np.zeros((5, 5)))

    def test_from_sparse(self):
        rng = np.random.default_rng(0)
        matrix = sparse.random(6, 6, density=0.3, format="csr", random_state=rng)
        estimate = FactoredEstimate.from_sparse(matrix)
        assert estimate.rank == 0
        _close(estimate.to_dense(), np.asarray(matrix.todense()))

    def test_from_lowrank(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal((6, 2))
        s = np.array([2.0, 1.0])
        vt = rng.standard_normal((2, 6))
        estimate = FactoredEstimate.from_lowrank(u, s, vt)
        assert estimate.residual_nnz == 0
        _close(estimate.to_dense(), (u * s) @ vt)

    def test_compress_full_rank_is_exact(self):
        rng = np.random.default_rng(2)
        matrix = rng.standard_normal((8, 8))
        estimate = FactoredEstimate.compress(matrix, rank=8)
        _close(estimate.to_dense(), matrix)

    def test_compress_residual_captures_spikes(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal((10, 2))
        vt = rng.standard_normal((2, 10))
        matrix = (u * np.array([3.0, 2.0])) @ vt
        matrix[4, 7] += 50.0  # a sparse spike rank-2 SVD cannot absorb
        estimate = FactoredEstimate.compress(matrix, rank=9, residual_nnz=4)
        _close(estimate.to_dense(), matrix)

    def test_shape_validation(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            FactoredEstimate(
                rng.standard_normal((5, 2)),
                np.ones(3),  # σ length disagrees with U's columns
                rng.standard_normal((2, 5)),
                sparse.csr_matrix((5, 5)),
            )
        with pytest.raises(ValueError):
            FactoredEstimate(
                rng.standard_normal((5, 2)),
                np.ones(2),
                rng.standard_normal((2, 5)),
                sparse.csr_matrix((4, 4)),  # residual shape disagrees
            )


class TestMemoryModel:
    def test_memory_bytes_tracks_factors_not_n_squared(self):
        n, rank = 400, 5
        rng = np.random.default_rng(5)
        estimate = FactoredEstimate(
            rng.standard_normal((n, rank)),
            rng.uniform(0.5, 1.0, rank),
            rng.standard_normal((rank, n)),
            sparse.random(n, n, density=0.01, format="csr", random_state=rng),
        )
        dense_bytes = n * n * 8
        assert estimate.memory_bytes() < 0.25 * dense_bytes
