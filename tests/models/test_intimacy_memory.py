"""Memory guards for the SLAMPRED intimacy gradients.

The learned-α transfer path holds the raw target and source feature
tensors (``d_t`` and ``d_s`` slices of ``n × n`` float64), the target's
latent tensor and one source's aligned latent tensor (``c`` slices each),
plus a few ``n × n`` buffers.  It builds no ``(Σ m_k)²`` indicator or
Laplacian for the adaptation and no stacked, scaled or concatenated copy
of a feature cube for the readout.  The traced allocation peak is bounded
in units of one ``n × n`` slice, so any such transient breaks the bound.

The target-only calibration (``_weighted_intimacy``: SLAMPRED-T, the
unaligned task and the fixed-α transfer path) and the fixed-α path's
source affinities (``DomainAdapter.affinity_matrix``) score every pair
with ``LogisticRegression.pair_logits``, which folds the classifier's
standardization into the weights and reads the cube slice by slice, so
neither holds a standardized ``(n², d)`` copy of its features.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.stats import rankdata

from repro.models import slampred
from repro.models.base import TransferTask
from repro.models.classifiers import LogisticRegression
from repro.models.slampred import SlamPred, _calibration_pairs
from repro.synth import generate_aligned_pair

LATENT = 5
SLACK_SLICES = 8


@pytest.fixture(scope="module")
def task():
    aligned = generate_aligned_pair(scale=200, random_state=0)
    return TransferTask.from_aligned(aligned, random_state=0)


def _transfer_peak_slices(task, **kwargs):
    """``(bound, peak)`` in slices of one traced transfer intimacy gradient."""
    model = SlamPred(latent_dimension=LATENT, n_jobs=1, **kwargs)
    n = task.target.n_users
    tracemalloc.start()
    try:
        gradient = model._intimacy_gradient(task)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gradient.shape == (n, n)
    d = model.extractor.n_features
    return d + d + 2 * LATENT + SLACK_SLICES, peak / (n * n * 8)


class TestTransferMemory:
    def test_peak_is_bounded_in_slices(self, task):
        bound_slices, peak = _transfer_peak_slices(task)
        assert peak <= bound_slices, f"peak {peak:.1f} slices > {bound_slices}"

    def test_fixed_alpha_peak_is_bounded_in_slices(self, task):
        """The fixed-α path holds the default path's bound.

        Its source affinities once ranked logits from the standardized
        ``(n², c)`` copy of the latent tensor, with the tensor still alive:
        44.3 slices on this task.
        """
        bound_slices, peak = _transfer_peak_slices(task, learn_alphas=False)
        assert peak <= bound_slices, f"peak {peak:.1f} slices > {bound_slices}"


class TestTargetCalibrationSkipped:
    def test_learned_transfer_keeps_draws_and_skips_dense_readout(
        self, task, monkeypatch
    ):
        calls = []
        original = slampred._calibration_pairs

        def recording(graph, random_state):
            calls.append(random_state)
            return original(graph, random_state)

        def forbidden(self, features):
            raise AssertionError("n² decision_function evaluated")

        monkeypatch.setattr(slampred, "_calibration_pairs", recording)
        monkeypatch.setattr(LogisticRegression, "decision_function", forbidden)
        rng = np.random.default_rng(9)
        shared = TransferTask(
            target=task.target,
            sources=task.sources,
            anchors=task.anchors,
            training_graph=task.training_graph,
            random_state=rng,
        )
        SlamPred(latent_dimension=LATENT, n_jobs=1)._intimacy_gradient(shared)
        # The target calibration's negative draw, then the joint readout's,
        # both from the one shared generator.
        assert calls == [rng, rng]


class TestWeightedIntimacy:
    def test_peak_is_bounded_in_slices(self, task):
        model = SlamPred(latent_dimension=LATENT, n_jobs=1)
        tensor = model.extractor.extract(task.target, task.training_graph)
        n = tensor.n_users
        tracemalloc.start()
        try:
            intimacy = model._weighted_intimacy(tensor, task.training_graph, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert intimacy.shape == (n, n)
        # Two standardized (n², d) copies of the 12-slice tensor peaked at
        # 25.3 slices.
        assert peak <= 16 * n * n * 8, f"peak {peak / (n * n * 8):.1f} slices"

    def test_slice_logits_match_standardized_decision_function(self, task):
        tensor = SlamPred().extractor.extract(task.target, task.training_graph)
        n, d = tensor.n_users, tensor.n_features
        rows, cols, labels = _calibration_pairs(task.training_graph, 0)
        model = LogisticRegression(l2=1.0)
        model.fit(tensor.pair_rows(rows, cols), labels)
        flat = tensor.values.reshape(d, -1).T
        expected = model.decision_function(flat).reshape(n, n)
        expected = (expected + expected.T) / 2.0
        logits = model.pair_logits(tensor.values)
        error = np.abs(logits - expected).max()
        assert error <= 1e-10 * np.abs(expected).max()


class TestSourceAffinity:
    def test_within_one_rank_step_of_decision_function(self, task):
        """``pair_logits`` moves near-tied logits, so ranks move by one step."""
        model = SlamPred(latent_dimension=LATENT, learn_alphas=False, n_jobs=1)
        model._intimacy_gradient(task)
        adapter = model._adapter
        tensor = model.extractor.extract(task.sources[0])
        latent = adapter.transform(tensor, 1)
        n, c = latent.n_users, latent.n_features
        classifier = adapter.pooled_latent_classifier()
        logits = classifier.decision_function(
            latent.values.reshape(c, -1).T
        ).reshape(n, n)
        logits = (logits + logits.T) / 2.0
        step = 1.0 / (n * n - 1)
        expected = (rankdata(logits.ravel()).reshape(n, n) - 1.0) * step
        np.fill_diagonal(expected, 0.0)
        affinity = adapter.affinity_matrix(tensor, 1)
        assert np.abs(affinity - expected).max() <= step * (1.0 + 1e-9)
