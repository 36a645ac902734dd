"""CholeskyQR2, the range finders' tall-skinny QR kernel.

The blocks mirror the sketch shapes of the fits (763×68 for the dense
scale-800 fit, 5000×16 and 5000×24 for the factored n=5000 fit) with a
graded spectrum of condition number 1e3, near the 346 those fits reach.
At that κ one CholeskyQR pass loses orthogonality to about u·κ² ≈ 1e-10,
so only the second pass meets the 1e-13 bound below.  A rank-deficient
block and a κ = 1e10 block must take the Householder fallback.
"""

import numpy as np
import pytest

from repro.perf import warm_svt
from repro.perf.warm_svt import _tall_qr


def _graded_block(rows, cols, condition, seed):
    """``U diag(σ) Vᵀ`` with random orthonormal U, V and σ from 1 to 1/κ."""
    rng = np.random.default_rng(seed)
    left = np.linalg.svd(rng.standard_normal((rows, cols)), full_matrices=False)[0]
    right = np.linalg.svd(rng.standard_normal((cols, cols)))[0]
    singular = np.logspace(0.0, -np.log10(condition), cols)
    return (left * singular) @ right.T


@pytest.fixture
def householder_calls(monkeypatch):
    """Count the Householder fallback's calls while the test runs."""
    calls = []
    original = np.linalg.qr

    def counting(block, *args, **kwargs):
        calls.append(block.shape)
        return original(block, *args, **kwargs)

    monkeypatch.setattr(warm_svt.np.linalg, "qr", counting)
    return calls


def _assert_qr(block, q, r):
    cols = block.shape[1]
    assert q.shape == block.shape
    assert r.shape == (cols, cols)
    assert np.abs(q.T @ q - np.eye(cols)).max() <= 1e-13
    reconstruction = np.linalg.norm(q @ r - block) / np.linalg.norm(block)
    assert reconstruction <= 1e-14


@pytest.mark.parametrize("shape", [(763, 68), (5000, 16), (5000, 24)])
def test_cholesky_qr2_is_orthonormal_and_exact(shape, householder_calls):
    block = _graded_block(*shape, condition=1e3, seed=shape[1])
    q, r = _tall_qr(block)
    _assert_qr(block, q, r)
    assert np.allclose(np.tril(r, -1), 0.0)
    assert householder_calls == []


def test_rank_deficient_block_takes_householder(householder_calls):
    block = _graded_block(5000, 16, condition=10.0, seed=1)
    block[:, 9] = block[:, 2]
    q, r = _tall_qr(block)
    _assert_qr(block, q, r)
    assert householder_calls == [block.shape]


def test_ill_conditioned_block_takes_householder(householder_calls):
    block = _graded_block(5000, 16, condition=1e10, seed=2)
    q, r = _tall_qr(block)
    _assert_qr(block, q, r)
    assert householder_calls == [block.shape]


def test_non_finite_block_takes_householder(householder_calls):
    block = _graded_block(200, 8, condition=10.0, seed=3)
    block[5, 1] = np.nan
    _tall_qr(block)
    assert householder_calls == [block.shape]
