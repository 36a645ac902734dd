"""Closed-form Theorem 1 pencil against the dense indicator construction.

:func:`~repro.adaptation.projection.quadratic_forms` builds ``Z(μL_A +
L_S)Zᵀ`` and ``Z L_D Zᵀ`` from label-class sums and a sparse ``W_A`` edge
list.  The oracle is the paper's definition taken literally: the dense
``(Σ m_k)²`` indicators of :func:`build_joint_indicators`, their
:func:`laplacian_matrix` Laplacians and the block matrix ``Z``.
"""

import numpy as np
import pytest

from repro.adaptation import indicators, laplacian, projection
from repro.adaptation.indicators import (
    LinkInstanceSample,
    build_joint_indicators,
    joint_aligned_edges,
)
from repro.adaptation.laplacian import laplacian_matrix
from repro.adaptation.projection import (
    _block_diagonal_features,
    quadratic_forms,
    solve_projections,
)
from repro.networks.aligned import AnchorLinks


def _sample(rng, n_users, n_pairs, n_features, labels=None):
    """Random distinct pairs with random features (and labels)."""
    upper = [(i, j) for i in range(n_users) for j in range(i + 1, n_users)]
    chosen = rng.choice(len(upper), size=n_pairs, replace=False)
    pairs = [upper[k] for k in chosen]
    if labels is None:
        labels = rng.integers(0, 2, size=n_pairs).astype(float)
    features = rng.random((n_features, n_pairs))
    return LinkInstanceSample(pairs, np.asarray(labels, dtype=float), features)


def _with_pairs(sample, pairs):
    """``sample`` whose leading pairs are replaced by ``pairs``."""
    merged = list(dict.fromkeys(list(pairs) + sample.pairs))[: sample.n_instances]
    return LinkInstanceSample(merged, sample.labels, sample.features)


def _image(pairs, anchors):
    """Anchor images of ``pairs`` whose endpoints are both anchored."""
    out = []
    for i, j in pairs:
        a, b = anchors.map_forward(i), anchors.map_forward(j)
        if a is not None and b is not None:
            out.append((min(a, b), max(a, b)))
    return out


def _dense_oracle(samples, anchors, mu):
    w_a, w_s, w_d = build_joint_indicators(samples, anchors)
    z = _block_diagonal_features(samples)
    left = z @ (mu * laplacian_matrix(w_a) + laplacian_matrix(w_s)) @ z.T
    right = z @ laplacian_matrix(w_d) @ z.T
    return left, right, w_a


def _assert_close(actual, expected):
    scale = max(np.abs(expected).max(), 1e-300)
    assert np.abs(actual - expected).max() <= 1e-12 * scale


N_USERS = 24


@pytest.fixture
def rng():
    return np.random.default_rng(11)


def _k1(rng):
    anchors = AnchorLinks((t, (t * 7) % N_USERS) for t in range(0, N_USERS, 2))
    target = _sample(rng, N_USERS, 40, 4)
    source = _with_pairs(
        _sample(rng, N_USERS, 45, 3), _image(target.pairs, anchors)
    )
    return [target, source], [anchors]


def _k2(rng):
    """Two sources whose shared target anchors compose source-to-source."""
    first = AnchorLinks((t, (t * 5 + 1) % N_USERS) for t in range(0, 18))
    second = AnchorLinks((t, (t * 11 + 3) % N_USERS) for t in range(4, 22))
    target = _sample(rng, N_USERS, 40, 4)
    source_1 = _with_pairs(
        _sample(rng, N_USERS, 40, 3), _image(target.pairs, first)
    )
    # Seed the second source with images of source-1 pairs too, so the
    # composed source-1 → source-2 block of W_A is non-empty.
    composed = AnchorLinks(
        (first.map_forward(t), second.map_forward(t))
        for t in range(4, 18)
    )
    source_2 = _with_pairs(
        _sample(rng, N_USERS, 50, 2),
        _image(source_1.pairs[:12], composed) + _image(target.pairs, second),
    )
    return [target, source_1, source_2], [first, second]


class TestClosedFormParity:
    @pytest.mark.parametrize("mu", [1.0, 0.0, 2.5])
    def test_one_source(self, rng, mu):
        samples, anchors = _k1(rng)
        left, right = quadratic_forms(samples, anchors, mu)
        dense_left, dense_right, w_a = _dense_oracle(samples, anchors, mu)
        assert w_a.sum() > 0
        _assert_close(left, dense_left)
        _assert_close(right, dense_right)

    def test_two_sources_with_composed_anchors(self, rng):
        samples, anchors = _k2(rng)
        left, right = quadratic_forms(samples, anchors, 1.0)
        dense_left, dense_right, w_a = _dense_oracle(samples, anchors, 1.0)
        offsets = np.cumsum([s.n_instances for s in samples])
        # The source-1 ↔ source-2 block is only reachable by composing
        # both anchor sets through the target.
        assert w_a[offsets[0]:offsets[1], offsets[1]:].sum() > 0
        _assert_close(left, dense_left)
        _assert_close(right, dense_right)

    def test_no_anchored_pairs(self, rng):
        target = _sample(rng, N_USERS, 30, 3)
        source = _sample(rng, N_USERS, 30, 3)
        samples, anchors = [target, source], [AnchorLinks()]
        left, right = quadratic_forms(samples, anchors, 1.0)
        dense_left, dense_right, w_a = _dense_oracle(samples, anchors, 1.0)
        assert w_a.sum() == 0
        _assert_close(left, dense_left)
        _assert_close(right, dense_right)

    def test_single_class_sample(self, rng):
        samples, anchors = _k1(rng)
        samples[0] = LinkInstanceSample(
            samples[0].pairs,
            np.ones(samples[0].n_instances),
            samples[0].features,
        )
        samples[1] = LinkInstanceSample(
            samples[1].pairs,
            np.ones(samples[1].n_instances),
            samples[1].features,
        )
        left, right = quadratic_forms(samples, anchors, 1.0)
        dense_left, dense_right, _ = _dense_oracle(samples, anchors, 1.0)
        _assert_close(left, dense_left)
        # One class: W_D is empty, so Z L_D Zᵀ vanishes.
        assert np.abs(dense_right).max() == 0
        assert np.abs(right).max() <= 1e-12 * np.abs(left).max()

    def test_edge_list_is_the_dense_w_a(self, rng):
        samples, anchors = _k2(rng)
        rows, cols = joint_aligned_edges(samples, anchors)
        w_a, _, _ = build_joint_indicators(samples, anchors)
        assert sorted(zip(rows.tolist(), cols.tolist())) == sorted(
            map(tuple, np.argwhere(w_a > 0).tolist())
        )


class TestSolveProjectionsIsMatrixFree:
    def test_no_dense_indicator_or_laplacian(self, rng, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("dense instance-space matrix built")

        for module in (indicators, projection):
            monkeypatch.setattr(module, "build_joint_indicators", forbidden, raising=False)
        for module in (laplacian, projection):
            monkeypatch.setattr(module, "laplacian_matrix", forbidden, raising=False)
        samples, anchors = _k1(rng)
        result = solve_projections(samples, anchors, latent_dimension=3)
        assert result.latent_dimension == 3
