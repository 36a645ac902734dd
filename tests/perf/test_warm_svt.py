"""Correctness of the warm-started, adaptive-rank SVT engine.

The engine is only allowed to be fast, never different: every property
here pins its output against the exact dense SVT, across random spectra,
thresholds, warm-started sequences and rank adaptation, plus the spectrum
cache that :meth:`TraceNormProx.value` reuses.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import TruncatedSVTWarning
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import Tracer
from repro.optim.proximal import TraceNormProx, singular_value_threshold
from repro.perf import WarmStartSVT
from repro.utils.matrices import trace_norm

# Small enough to keep the dense reference cheap, large enough that the
# randomized path (budget = rank + oversample = 16) genuinely truncates.
N = 28
FORCE_RANDOMIZED = dict(dense_cutoff=4)


def _spectrum_matrix(seed: int, n: int, spectrum: np.ndarray) -> np.ndarray:
    """A deterministic n×n matrix with the prescribed singular spectrum."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(n, n)))
    v, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return (u * np.sort(spectrum)[::-1]) @ v.T


class TestDenseParity:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**20),
        threshold=st.floats(0.0, 6.0, allow_nan=False),
        top=st.floats(0.5, 10.0, allow_nan=False),
        decay=st.floats(0.3, 0.95, allow_nan=False),
    )
    def test_parity_across_spectra_and_thresholds(
        self, seed, threshold, top, decay
    ):
        """Randomized warm path ≡ dense SVT to 1e-8, any spectrum/threshold."""
        spectrum = top * decay ** np.arange(N)
        matrix = _spectrum_matrix(seed, N, spectrum)
        engine = WarmStartSVT(**FORCE_RANDOMIZED)
        out = engine.apply(matrix, threshold)
        exact = singular_value_threshold(matrix, threshold)
        np.testing.assert_allclose(out, exact, atol=1e-8)

    def test_warm_started_sequence_parity(self, rng):
        """A drifting matrix sequence (the solver's pattern) stays exact."""
        spectrum = 8.0 * 0.6 ** np.arange(N)
        matrix = _spectrum_matrix(7, N, spectrum)
        drift = rng.normal(size=(N, N)) * 0.05
        engine = WarmStartSVT(**FORCE_RANDOMIZED)
        for step in range(12):
            current = matrix + step * drift
            out = engine.apply(current, 0.8)
            exact = singular_value_threshold(current, 0.8)
            np.testing.assert_allclose(out, exact, atol=1e-8)
        assert engine.stats["applies"] == 12
        # The warm subspace carries over: after the first apply the engine
        # has a retained subspace to seed from.
        assert engine._subspace is not None

    def test_zero_threshold(self):
        """θ = 0 keeps the full spectrum (forces growth into dense)."""
        matrix = _spectrum_matrix(3, N, 2.0 * 0.9 ** np.arange(N))
        engine = WarmStartSVT(**FORCE_RANDOMIZED)
        out = engine.apply(matrix, 0.0)
        np.testing.assert_allclose(out, matrix, atol=1e-8)


class TestDeterminism:
    def test_same_sequence_same_outputs(self, rng):
        """Two fresh engines over the same sequence agree bit for bit."""
        matrices = [
            _spectrum_matrix(seed, N, 5.0 * 0.7 ** np.arange(N))
            for seed in range(5)
        ]
        first = [
            WarmStartSVT(**FORCE_RANDOMIZED).apply(m, 0.5) for m in matrices
        ]
        engine_a = WarmStartSVT(**FORCE_RANDOMIZED)
        engine_b = WarmStartSVT(**FORCE_RANDOMIZED)
        for matrix in matrices:
            out_a = engine_a.apply(matrix, 0.5)
            out_b = engine_b.apply(matrix, 0.5)
            assert np.array_equal(out_a, out_b)
        # Stateful warm starts may legitimately differ from cold starts in
        # the last bits, but engine-vs-engine must be exactly reproducible.
        assert len(first) == len(matrices)


class TestAdaptiveRank:
    def test_rank_grows_on_heavy_spectrum(self):
        """Many supra-threshold singular values force the rank up."""
        n = 64
        spectrum = np.full(n, 3.0)  # flat spectrum, all above threshold
        matrix = _spectrum_matrix(11, n, spectrum)
        engine = WarmStartSVT(initial_rank=8, **FORCE_RANDOMIZED)
        out = engine.apply(matrix, 0.5)
        exact = singular_value_threshold(matrix, 0.5)
        np.testing.assert_allclose(out, exact, atol=1e-8)
        assert engine.stats["rank_grows"] >= 1
        assert engine.rank > 8

    def test_rank_shrinks_after_overshoot(self):
        """A near-low-rank matrix pulls an oversized rank back down."""
        n = 64
        spectrum = np.concatenate([[9.0, 7.0], np.full(n - 2, 1e-4)])
        matrix = _spectrum_matrix(13, n, spectrum)
        engine = WarmStartSVT(initial_rank=40, **FORCE_RANDOMIZED)
        out = engine.apply(matrix, 0.5)
        exact = singular_value_threshold(matrix, 0.5)
        np.testing.assert_allclose(out, exact, atol=1e-8)
        assert engine.stats["rank_shrinks"] >= 1
        assert engine.rank < 40

    def test_small_matrices_take_dense_path(self, rng):
        engine = WarmStartSVT()  # default dense_cutoff=96
        matrix = rng.normal(size=(30, 30))
        out = engine.apply(matrix, 0.4)
        np.testing.assert_allclose(
            out, singular_value_threshold(matrix, 0.4), atol=1e-10
        )
        assert engine.stats["dense_applies"] == 1
        assert engine.stats["dense_fallbacks"] == 0


def _rank_capped_reference(
    matrix: np.ndarray, threshold: float, cap: int
) -> np.ndarray:
    """The best-effort rank-capped SVT via a dense SVD (the truth the
    capped engine approximates)."""
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    shrunk = np.maximum(s[:cap] - threshold, 0.0)
    r = int(np.count_nonzero(shrunk))
    return (u[:, :r] * shrunk[:r]) @ vt[:r]


class TestRankCap:
    def test_lossy_cap_matches_truncated_reference(self):
        """At the cap with supra-threshold tail: warns, counts, and still
        lands on the rank-capped operator (to the lossy tolerances)."""
        spectrum = 8.0 * 0.6 ** np.arange(N)
        matrix = _spectrum_matrix(23, N, spectrum)
        engine = WarmStartSVT(
            initial_rank=6, max_rank=6, **FORCE_RANDOMIZED
        )
        with pytest.warns(TruncatedSVTWarning, match="rank cap 6 is lossy"):
            out = engine.apply(matrix, 0.1)
        np.testing.assert_allclose(
            out, _rank_capped_reference(matrix, 0.1, 6), atol=1e-3
        )
        assert engine.stats["lossy_truncations"] == 1
        assert engine.stats["dense_fallbacks"] == 0
        assert engine.rank == 6

    def test_cap_without_tail_stays_exact(self):
        """A cap that is not binding keeps the exact-prox guarantee."""
        spectrum = np.concatenate([[9.0, 7.0, 5.0], np.full(N - 3, 1e-4)])
        matrix = _spectrum_matrix(29, N, spectrum)
        engine = WarmStartSVT(
            initial_rank=8, max_rank=10, **FORCE_RANDOMIZED
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = engine.apply(matrix, 0.5)
        np.testing.assert_allclose(
            out, singular_value_threshold(matrix, 0.5), atol=1e-6
        )
        assert engine.stats["lossy_truncations"] == 0

    def test_growth_respects_the_cap(self):
        """Rank grows toward — but never past — max_rank."""
        n = 64
        matrix = _spectrum_matrix(31, n, np.full(n, 3.0))
        engine = WarmStartSVT(
            initial_rank=4, max_rank=12, **FORCE_RANDOMIZED
        )
        with pytest.warns(TruncatedSVTWarning, match="lossy"):
            engine.apply(matrix, 0.5)
        assert engine.rank == 12
        assert engine.stats["rank_grows"] >= 1

    def test_cap_in_dense_regime_is_not_truncating(self):
        """A cap at/past min(shape)-1 promotes to the exact prox, like
        the legacy path promoted non-truncating ranks."""
        matrix = _spectrum_matrix(37, N, 3.0 * 0.7 ** np.arange(N))
        engine = WarmStartSVT(max_rank=N, **FORCE_RANDOMIZED)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = engine.apply(matrix, 0.2)
        np.testing.assert_allclose(
            out, singular_value_threshold(matrix, 0.2), atol=1e-8
        )

    def test_lossy_tracer_metrics(self):
        matrix = _spectrum_matrix(41, N, 8.0 * 0.6 ** np.arange(N))
        registry = MetricsRegistry()
        tracer = Tracer(registry)
        engine = WarmStartSVT(
            initial_rank=6, max_rank=6, **FORCE_RANDOMIZED
        )
        with tracer.trace("svt") as trace, pytest.warns(TruncatedSVTWarning):
            engine.apply(matrix, 0.1, tracer=tracer)
        assert tracer.counters["svt.lossy_truncations"] == 1
        assert trace.metrics["svt.tail_excess"]

    def test_invalid_max_rank_rejected(self):
        with pytest.raises(ValueError, match="max_rank"):
            WarmStartSVT(max_rank=0)


def _low_rank_plus_noise(seed: int, n: int, rank: int, noise: float):
    """``(matrix, threshold)`` with the threshold in the signal/noise gap."""
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, n))
    matrix += noise * rng.normal(size=(n, n))
    spectrum = np.linalg.svd(matrix, compute_uv=False)
    return matrix, float(np.sqrt(spectrum[rank - 1] * spectrum[rank]))


def _spy_factors(engine: WarmStartSVT, perturb=None) -> list:
    """Record (matrix, factors) from each randomized-path return.

    ``perturb`` optionally rewrites the factors before the engine sees them.
    """
    captured = []
    original = engine._randomized_factors

    def spy(matrix, *args):
        factors, ritz = original(matrix, *args)
        if factors is not None:
            if perturb is not None:
                factors = perturb(*factors)
            captured.append((matrix, factors))
        return factors, ritz

    engine._randomized_factors = spy
    return captured


class TestTripletVerification:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**20),
        rank=st.integers(1, 6),
        noise=st.floats(1e-12, 1e-8),
    )
    def test_retained_triplets_satisfy_both_residuals(self, seed, rank, noise):
        """Uncapped: ‖Av − σu‖ and ‖Aᵀu − σv‖ both within residual_tol.

        The noise stays small enough for every Ritz value in the sketch to
        settle to ``ritz_tol``; louder noise exhausts the refinement budget
        and goes dense before any triplet is returned.
        """
        n = 40
        matrix, threshold = _low_rank_plus_noise(seed, n, rank, noise)
        engine = WarmStartSVT(**FORCE_RANDOMIZED)
        captured = _spy_factors(engine)
        out = engine.apply(matrix, threshold)
        np.testing.assert_allclose(
            out, singular_value_threshold(matrix, threshold), atol=1e-8
        )
        assert engine.stats["dense_fallbacks"] == 0
        assert captured
        a, (u, singular, vt) = captured[-1]
        retained = int(np.count_nonzero(singular > threshold))
        assert retained == rank
        bound = engine.residual_tol * singular[0]
        v = vt[:retained].T
        u = u[:, :retained]
        sigma = singular[:retained]
        assert np.linalg.norm(a @ v - u * sigma, axis=0).max() <= bound
        assert np.linalg.norm(a.T @ u - v * sigma, axis=0).max() <= bound

    def test_perturbed_right_subspace_takes_dense_fallback(self):
        """A wrong right subspace fails the check and goes dense, loudly."""
        matrix, threshold = _low_rank_plus_noise(5, 40, 4, 1e-10)
        tilt = np.random.default_rng(6).normal(size=(40, 40))

        def perturb(u, singular, vt):
            v, _ = np.linalg.qr(vt.T + 1e-3 * tilt[:, : vt.shape[0]])
            return u, singular, v.T

        engine = WarmStartSVT(**FORCE_RANDOMIZED)
        captured = _spy_factors(engine, perturb)
        tracer = Tracer(MetricsRegistry())
        with pytest.warns(TruncatedSVTWarning, match="residual too large"):
            out = engine.apply(matrix, threshold, tracer=tracer)
        np.testing.assert_allclose(
            out, singular_value_threshold(matrix, threshold), atol=1e-10
        )
        assert engine.stats["dense_fallbacks"] == 1
        assert tracer.counters["svt.dense_fallbacks"] == 1
        a, (u, singular, vt) = captured[-1]
        assert not engine._residuals_ok(a, u, singular, vt, 4, capped=False)


class TestObservability:
    def test_tracer_metrics_and_registry_bridge(self):
        matrix = _spectrum_matrix(17, N, 4.0 * 0.7 ** np.arange(N))
        registry = MetricsRegistry()
        tracer = Tracer(registry)
        engine = WarmStartSVT(**FORCE_RANDOMIZED)
        with tracer.trace("svt") as trace:
            engine.apply(matrix, 0.5, tracer=tracer)
        assert trace.metrics["svt.adaptive_rank"]
        assert trace.metrics["svt.retained_rank"]
        rendered = registry.render()
        assert "solver_svt_adaptive_rank" in rendered

    def test_stats_accumulate(self):
        matrix = _spectrum_matrix(19, N, 4.0 * 0.7 ** np.arange(N))
        engine = WarmStartSVT(**FORCE_RANDOMIZED)
        engine.apply(matrix, 0.5)
        engine.apply(matrix, 0.5)
        assert engine.stats["applies"] == 2
        assert engine.stats["seconds"] > 0.0


class TestTraceNormProxEngine:
    def test_apply_routes_through_engine(self, rng):
        engine = WarmStartSVT()
        prox = TraceNormProx(0.7, engine=engine)
        matrix = rng.normal(size=(20, 20))
        out = prox.apply(matrix, 0.5)
        np.testing.assert_allclose(
            out, singular_value_threshold(matrix, 0.5 * 0.7), atol=1e-10
        )
        assert engine.stats["applies"] == 1

    def test_value_without_engine_unchanged(self, rng):
        prox = TraceNormProx(0.3)
        matrix = rng.normal(size=(10, 10))
        assert prox.value(matrix) == pytest.approx(0.3 * trace_norm(matrix))

    def test_repr_mentions_engine(self):
        assert "WarmStartSVT" in repr(TraceNormProx(1.0, engine=WarmStartSVT()))
