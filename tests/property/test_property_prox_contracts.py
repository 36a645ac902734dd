"""Property-based contracts for the proximal operators (hypothesis).

The properties the solver correctness rests on:

* soft thresholding is *firmly* nonexpansive (the defining inequality of a
  proximal map) and matches its closed form entry-wise;
* SVT never produces larger singular values than its input, and the
  truncated SVT (a rank-capped :class:`~repro.perf.warm_svt.WarmStartSVT`)
  agrees with the dense path whenever ``rank`` is not actually
  discarding spectrum;
* zero thresholds are the identity.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.exceptions import TruncatedSVTWarning
from repro.optim.proximal import singular_value_threshold, soft_threshold
from repro.perf.warm_svt import WarmStartSVT

matrices = hnp.arrays(
    dtype=float,
    shape=st.tuples(st.integers(1, 8), st.integers(1, 8)),
    elements=st.floats(-10, 10, allow_nan=False),
)
matrix_pairs = st.tuples(st.integers(1, 8), st.integers(1, 8)).flatmap(
    lambda shape: st.tuples(
        hnp.arrays(
            dtype=float,
            shape=shape,
            elements=st.floats(-10, 10, allow_nan=False),
        ),
        hnp.arrays(
            dtype=float,
            shape=shape,
            elements=st.floats(-10, 10, allow_nan=False),
        ),
    )
)
thresholds = st.floats(0, 5, allow_nan=False)


def _truncated_svt(matrix, threshold, rank):
    """The rank-``rank`` truncated SVT, forced off the dense shortcut.

    A numerically zero tail above a zero threshold counts as lossy, so
    the lossy-truncation warning is silenced here.
    """
    engine = WarmStartSVT(initial_rank=rank, max_rank=rank, dense_cutoff=4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncatedSVTWarning)
        return engine.apply(matrix, threshold)


def _low_rank(seed: int, n: int, rank: int, scale: float) -> np.ndarray:
    """A deterministic n×n matrix of exact rank ≤ ``rank``."""
    rng = np.random.default_rng(seed)
    left = rng.normal(size=(n, rank))
    right = rng.normal(size=(rank, n))
    return scale * (left @ right)


class TestSoftThresholdContracts:
    @given(matrix_pairs, thresholds)
    def test_firmly_nonexpansive(self, pair, t):
        """‖T(x)−T(y)‖² ≤ ⟨T(x)−T(y), x−y⟩ — the prox-map inequality.

        Firm nonexpansiveness is strictly stronger than the 1-Lipschitz
        property and characterizes proximal operators of convex functions.
        """
        x, y = pair
        tx, ty = soft_threshold(x, t), soft_threshold(y, t)
        diff = tx - ty
        lhs = float(np.sum(diff * diff))
        rhs = float(np.sum(diff * (x - y)))
        assert lhs <= rhs + 1e-9

    @given(matrices, thresholds)
    def test_matches_closed_form(self, m, t):
        expected = np.sign(m) * np.maximum(np.abs(m) - t, 0.0)
        assert np.array_equal(soft_threshold(m, t), expected)

    @given(matrices)
    def test_zero_threshold_is_identity(self, m):
        assert np.array_equal(soft_threshold(m, 0.0), m)


class TestSvtContracts:
    @settings(max_examples=40)
    @given(matrices, thresholds)
    def test_never_larger_singular_values(self, m, t):
        """Every output singular value is ≤ the matching input one."""
        before = np.sort(np.linalg.svd(m, compute_uv=False))[::-1]
        after = np.sort(
            np.linalg.svd(singular_value_threshold(m, t), compute_uv=False)
        )[::-1]
        assert np.all(after <= before + 1e-8)

    @settings(max_examples=40)
    @given(matrices)
    def test_zero_threshold_is_identity(self, m):
        assert np.allclose(singular_value_threshold(m, 0.0), m, atol=1e-8)


class TestTruncatedSvtContracts:
    @settings(max_examples=25)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(8, 20),
        true_rank=st.integers(1, 3),
        threshold=st.floats(0.0, 2.0, allow_nan=False),
        slack=st.integers(1, 3),
    )
    def test_agrees_with_dense_when_not_truncating(
        self, seed, n, true_rank, threshold, slack
    ):
        """On a rank-r matrix, any truncation rank ≥ r is exact.

        The discarded tail is identically zero, so the truncated path and
        the dense path compute the same prox.
        """
        matrix = _low_rank(seed, n, true_rank, scale=3.0)
        rank = min(true_rank + slack, n - 2)
        dense = singular_value_threshold(matrix, threshold)
        truncated = _truncated_svt(matrix, threshold, rank)
        assert np.allclose(dense, truncated, atol=1e-6)

    @settings(max_examples=25)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(8, 16),
        true_rank=st.integers(1, 3),
    )
    def test_zero_threshold_identity_on_captured_spectrum(
        self, seed, n, true_rank
    ):
        """Rank-covering truncation at threshold 0 reproduces the matrix."""
        matrix = _low_rank(seed, n, true_rank, scale=3.0)
        rank = min(true_rank + 1, n - 2)
        out = _truncated_svt(matrix, 0.0, rank)
        assert np.allclose(out, matrix, atol=1e-6)

    @settings(max_examples=25)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(10, 20),
        rank=st.integers(1, 4),
        threshold=st.floats(0.0, 2.0, allow_nan=False),
    )
    def test_never_larger_singular_values(self, seed, n, rank, threshold):
        """The truncated path also never grows the spectrum."""
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(n, n))
        out = _truncated_svt(matrix, threshold, rank)
        before = np.sort(np.linalg.svd(matrix, compute_uv=False))[::-1]
        after = np.sort(np.linalg.svd(out, compute_uv=False))[::-1]
        assert np.all(after <= before + 1e-6)
