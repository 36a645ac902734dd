"""The streamed joint intimacy readout against the dense feature cube.

``_joint_logits`` accumulates the logistic readout slice by slice into one
n×n buffer.  The oracle below is the formulation it replaced: scale every
block to ``α · x / std``, concatenate the blocks and the α-weighted
coverage slices into a ``(D, n, n)`` cube, fit on the calibration pairs
and call ``decision_function`` on its ``n² × D`` view.
"""

import numpy as np
import pytest

from repro.models.classifiers import LogisticRegression
from repro.models.slampred import _joint_logits

N = 30


def _dense_cube_logits(latent_blocks, block_alphas, coverage_blocks, rows, cols, labels):
    scaled = []
    for alpha, block in zip(block_alphas, latent_blocks):
        std = block.reshape(block.shape[0], -1).std(axis=1)
        std = np.where(std > 0, std, 1.0)
        scaled.append(alpha * block / std[:, None, None])
    for alpha, mask in coverage_blocks:
        coverage = np.outer(mask, mask)
        np.fill_diagonal(coverage, 0.0)
        scaled.append(alpha * coverage[None])
    features = np.concatenate(scaled)
    model = LogisticRegression(l2=1.0, standardize=False)
    model.fit(features[:, rows, cols].T, labels)
    n = features.shape[1]
    logits = model.decision_function(features.reshape(features.shape[0], -1).T)
    logits = logits.reshape(n, n)
    return (logits + logits.T) / 2.0


def _symmetric_blocks(rng, sizes):
    blocks = []
    for size in sizes:
        block = rng.normal(size=(size, N, N))
        block = (block + block.transpose(0, 2, 1)) / 2.0
        for matrix in block:
            np.fill_diagonal(matrix, 0.0)
        blocks.append(block)
    return blocks


@pytest.fixture
def problem():
    rng = np.random.default_rng(5)
    blocks = _symmetric_blocks(rng, (4, 3, 3))
    blocks[2][1] = 0.0  # a constant slice: std 0 falls back to 1
    alphas = [1.0, 0.7, 2.0]
    mask = (rng.random(N) < 0.6).astype(float)
    coverage = [(2.0, mask)]
    upper_rows, upper_cols = np.triu_indices(N, k=1)
    pick = rng.choice(upper_rows.size, size=120, replace=False)
    rows, cols = upper_rows[pick], upper_cols[pick]
    labels = (blocks[0][0][rows, cols] + rng.normal(size=rows.size) > 0).astype(float)
    return blocks, alphas, coverage, rows, cols, labels


class TestStreamedReadout:
    def test_matches_dense_cube(self, problem):
        streamed = _joint_logits(*problem)
        dense = _dense_cube_logits(*problem)
        assert streamed.shape == (N, N)
        assert np.abs(streamed - dense).max() <= 1e-10 * np.abs(dense).max()

    def test_matches_dense_cube_with_zero_alpha_source(self, problem):
        blocks, alphas, coverage, rows, cols, labels = problem
        alphas = alphas[:2] + [0.0]
        coverage = [(0.0, coverage[0][1])]
        args = (blocks, alphas, coverage, rows, cols, labels)
        streamed = _joint_logits(*args)
        dense = _dense_cube_logits(*args)
        assert np.abs(streamed - dense).max() <= 1e-10 * np.abs(dense).max()

    def test_equal_feature_vectors_get_equal_logits(self, problem):
        blocks, alphas, coverage, rows, cols, labels = problem
        mask = coverage[0][1]
        covered = np.flatnonzero(mask)
        (i, j), (k, l) = covered[:2], covered[2:4]
        for block in blocks:
            for matrix in block:
                matrix[k, l] = matrix[l, k] = matrix[i, j]
        streamed = _joint_logits(blocks, alphas, coverage, rows, cols, labels)
        # Bitwise equality: a rank transform keeps the two pairs tied.
        assert streamed[k, l] == streamed[i, j]
        assert streamed[l, k] == streamed[i, j]

    def test_symmetric(self, problem):
        streamed = _joint_logits(*problem)
        np.testing.assert_array_equal(streamed, streamed.T)
