"""Tests for repro.models.persistence."""

import json
import os

import numpy as np
import pytest

from repro.exceptions import NotFittedError, SerializationError
from repro.models.base import TransferTask
from repro.models.persistence import (
    FrozenPredictor,
    content_digest,
    load_predictor,
    save_predictor,
)
from repro.models.slampred import SlamPredT
from repro.models.unsupervised import CommonNeighbors


class TestRoundTrip:
    def test_scores_preserved(self, task, split, tmp_path):
        model = CommonNeighbors().fit(task)
        path = str(tmp_path / "cn")
        save_predictor(model, path)
        loaded = load_predictor(path)
        assert type(loaded.score_matrix) is np.ndarray
        assert np.array_equal(loaded.score_matrix, model.score_matrix)
        assert np.array_equal(
            loaded.score_pairs(split.test_pairs),
            model.score_pairs(split.test_pairs),
        )

    def test_metadata_preserved(self, task, tmp_path):
        model = SlamPredT(gamma=0.07, tau=2.0).fit(task)
        path = str(tmp_path / "slampred")
        save_predictor(model, path)
        loaded = load_predictor(path)
        assert loaded.name == "SLAMPRED-T"
        assert loaded.metadata["gamma"] == 0.07
        assert loaded.metadata["tau"] == 2.0
        assert loaded.metadata["class"] == "SlamPredT"

    def test_unfitted_save_raises(self, tmp_path):
        with pytest.raises(NotFittedError):
            save_predictor(CommonNeighbors(), str(tmp_path / "x"))

    def test_load_garbage_raises(self, tmp_path):
        (tmp_path / "model.json").write_bytes(b"not a header")
        with pytest.raises(SerializationError):
            load_predictor(str(tmp_path))

    def test_hyper_parameter_fidelity(self, task, tmp_path):
        model = SlamPredT(
            gamma=0.11, tau=1.5, mu=0.8, step_size=0.04, latent_dimension=4
        ).fit(task)
        path = str(tmp_path / "m")
        save_predictor(model, path)
        metadata = load_predictor(path).metadata
        assert metadata["gamma"] == 0.11
        assert metadata["tau"] == 1.5
        assert metadata["mu"] == 0.8
        assert metadata["step_size"] == 0.04
        assert metadata["latent_dimension"] == 4
        assert metadata["alpha_sources"] == model.alpha_sources


def _header(directory):
    with open(os.path.join(directory, "model.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _write_header(directory, header):
    with open(os.path.join(directory, "model.json"), "w", encoding="utf-8") as handle:
        json.dump(header, handle)


class TestIntegrity:
    @pytest.fixture()
    def saved(self, tmp_path):
        frozen = FrozenPredictor(np.arange(16.0).reshape(4, 4), {"name": "x"})
        path = str(tmp_path / "frozen")
        save_predictor(frozen, path)
        return path

    def test_digest_embedded(self, saved):
        header = _header(saved)
        assert header["format_version"] == 1
        assert header["kind"] == "dense"
        assert len(header["digest"]) == 64

    def test_unsupported_format_version(self, saved):
        header = _header(saved)
        header["format_version"] = 99
        _write_header(saved, header)
        with pytest.raises(SerializationError, match="format .* v99"):
            load_predictor(saved)

    def test_tampered_matrix_rejected(self, saved):
        path = os.path.join(saved, "score_matrix.npy")
        np.save(path, np.load(path) + 1.0)
        with pytest.raises(SerializationError, match="integrity"):
            load_predictor(saved)

    def test_tampered_metadata_rejected(self, saved):
        header = _header(saved)
        blob = json.loads(header["metadata_json"])
        blob["name"] = "evil"
        header["metadata_json"] = json.dumps(blob)
        _write_header(saved, header)
        with pytest.raises(SerializationError, match="integrity"):
            load_predictor(saved)

    def test_truncated_file_raises_serialization_error(self, saved):
        path = os.path.join(saved, "score_matrix.npy")
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 3])
        with pytest.raises(SerializationError, match="cannot load"):
            load_predictor(saved)

    def test_missing_digest_field_rejected(self, saved):
        header = _header(saved)
        del header["digest"]
        _write_header(saved, header)
        with pytest.raises(SerializationError, match="cannot load"):
            load_predictor(saved)

    def test_content_digest_is_deterministic(self):
        matrix = {"score_matrix": np.ones((2, 2))}
        shifted = {"score_matrix": np.ones((2, 2)) + 1}
        assert content_digest(matrix, "{}") == content_digest(matrix, "{}")
        assert content_digest(matrix, "{}") != content_digest(shifted, "{}")
        assert content_digest(matrix, "{}") != content_digest(matrix, '{"a":1}')


class TestFrozenPredictor:
    def test_refit_rejected(self, task):
        frozen = FrozenPredictor(np.zeros((3, 3)))
        with pytest.raises(SerializationError, match="refitted"):
            frozen.fit(task)

    def test_rejects_rectangular(self):
        with pytest.raises(SerializationError):
            FrozenPredictor(np.zeros((2, 3)))

    def test_is_fitted_on_construction(self):
        frozen = FrozenPredictor(np.eye(3))
        assert frozen.is_fitted
        assert frozen.score_pairs([(0, 1)])[0] == 0.0
