"""Tests for the versioned ArtifactStore: layout, integrity, errors."""

import json
import os

import numpy as np
import pytest

from repro.exceptions import (
    ArtifactCorruptError,
    NotFittedError,
    SerializationError,
)
from repro.models.persistence import FrozenPredictor
from repro.models.unsupervised import CommonNeighbors
from repro.serving.artifacts import (
    MANIFEST_SCHEMA_VERSION,
    ArtifactStore,
    file_sha256,
)


class TestPublish:
    def test_versions_increment(self, store, predictor):
        assert store.versions() == [1]
        assert store.publish(predictor) == 2
        assert store.publish(predictor) == 3
        assert store.resolve_latest() == 3

    def test_directory_per_version_layout(self, store):
        version_dir = store.path(1)
        assert os.path.isdir(version_dir)
        assert os.path.isfile(os.path.join(version_dir, "manifest.json"))
        assert os.path.isfile(os.path.join(version_dir, "model.json"))
        assert os.path.isfile(os.path.join(version_dir, "score_matrix.npy"))
        assert os.path.isfile(os.path.join(version_dir, "graph_indices.npy"))

    def test_no_staging_leftovers(self, store):
        assert not [
            entry
            for entry in os.listdir(store.root)
            if entry.startswith(".staging-")
        ]

    def test_manifest_contents(self, store):
        manifest = store.manifest(1)
        assert manifest["schema_version"] == MANIFEST_SCHEMA_VERSION
        assert manifest["version"] == 1
        assert manifest["name"] == "toy-model"
        assert manifest["n_users"] == 24
        assert manifest["meta"] == {"origin": "test"}
        assert manifest["kind"] == "dense"
        assert set(manifest["files"]) == {
            "model.json",
            "score_matrix.npy",
            "graph_data.npy",
            "graph_indices.npy",
            "graph_indptr.npy",
        }
        for entry in manifest["files"].values():
            assert len(entry["sha256"]) == 64
            assert entry["bytes"] > 0

    def test_checksums_match_files(self, store):
        manifest = store.manifest(1)
        for filename, entry in manifest["files"].items():
            path = os.path.join(store.path(1), filename)
            assert file_sha256(path) == entry["sha256"]

    def test_unfitted_model_rejected_without_disk_state(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "empty"))
        with pytest.raises(NotFittedError):
            store.publish(CommonNeighbors())
        assert store.versions() == []

    def test_mismatched_graph_rejected(self, tmp_path, predictor):
        store = ArtifactStore(str(tmp_path / "s"))
        with pytest.raises(SerializationError, match="does not match"):
            store.publish(predictor, graph=np.zeros((3, 3)))


class TestLoad:
    def test_round_trip(self, store, predictor, adjacency):
        artifact = store.load()
        assert artifact.version == 1
        assert artifact.n_users == 24
        assert np.array_equal(
            artifact.predictor.score_matrix, predictor.score_matrix
        )
        assert type(artifact.predictor.score_matrix) is np.ndarray
        assert np.array_equal(artifact.adjacency.toarray(), adjacency)
        assert artifact.predictor.metadata["gamma"] == 0.05

    def test_load_without_graph(self, tmp_path, predictor):
        store = ArtifactStore(str(tmp_path / "nograph"))
        store.publish(predictor)
        assert store.load().adjacency is None

    def test_load_pinned_version(self, store, predictor):
        store.publish(FrozenPredictor(np.eye(24), {"name": "second"}))
        assert store.load(1).manifest["name"] == "toy-model"
        assert store.load(2).manifest["name"] == "second"
        assert store.load().version == 2

    def test_empty_store_raises(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "void"))
        with pytest.raises(SerializationError, match="no published versions"):
            store.resolve_latest()
        with pytest.raises(SerializationError):
            store.load()

    def test_missing_version_raises(self, store):
        with pytest.raises(SerializationError, match="not found"):
            store.manifest(42)


class TestIntegrity:
    def test_tampered_model_rejected(self, store):
        path = os.path.join(store.path(1), "score_matrix.npy")
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(SerializationError, match="integrity"):
            store.load()

    def test_tampered_matrix_caught_behind_rewritten_checksums(self, store):
        # The manifest checksum is rewritten to match the tampered file,
        # so only the predictor's content digest in model.json can catch it.
        path = os.path.join(store.path(1), "score_matrix.npy")
        np.save(path, np.load(path) + 1.0)
        manifest_path = os.path.join(store.path(1), "manifest.json")
        manifest = json.load(open(manifest_path))
        manifest["files"]["score_matrix.npy"]["sha256"] = file_sha256(path)
        json.dump(manifest, open(manifest_path, "w"))
        store.verify(1)
        with pytest.raises(ArtifactCorruptError, match="integrity"):
            store.load()

    def test_truncated_graph_rejected(self, store):
        path = os.path.join(store.path(1), "graph_indices.npy")
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        with pytest.raises(SerializationError, match="integrity"):
            store.load()

    def test_missing_file_rejected(self, store):
        os.remove(os.path.join(store.path(1), "graph_indptr.npy"))
        with pytest.raises(SerializationError, match="missing"):
            store.load()

    def test_corrupt_manifest_rejected(self, store):
        manifest_path = os.path.join(store.path(1), "manifest.json")
        open(manifest_path, "w").write("{not json")
        with pytest.raises(SerializationError, match="manifest"):
            store.load()

    def test_unknown_schema_version_rejected(self, store):
        manifest_path = os.path.join(store.path(1), "manifest.json")
        manifest = json.load(open(manifest_path))
        manifest["schema_version"] = 999
        json.dump(manifest, open(manifest_path, "w"))
        with pytest.raises(SerializationError, match="schema version"):
            store.manifest(1)

    def test_verify_passes_on_clean_store(self, store):
        assert store.verify(1)["version"] == 1
