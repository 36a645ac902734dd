"""Factored artifacts end to end: persistence, integrity, serving parity.

A factored publish stores O(nk) factor arrays instead of the n×n matrix.
These tests pin three contracts: (1) a publish → reload round trip is
score-identical; (2) the sha256 digest over the factor arrays rejects a
corrupted factor file with :class:`ArtifactCorruptError`; (3) a service
backed by the factored artifact answers ``top_k`` / ``batch_top_k`` /
``score`` identically to one backed by the dense materialization of the
same estimate.
"""

import json
import os

import numpy as np
import pytest
from scipy import sparse

from repro.exceptions import ArtifactCorruptError, SerializationError
from repro.models.persistence import (
    FrozenFactoredPredictor,
    FrozenPredictor,
    load_predictor,
    save_predictor,
)
from repro.models.slampred import SlamPredH
from repro.serving.artifacts import ArtifactStore, file_sha256
from repro.serving.service import LinkPredictionService

N = 48


@pytest.fixture(scope="module")
def adjacency():
    """A small symmetric graph for the factored structural fit."""
    rng = np.random.default_rng(77)
    upper = sparse.random(N, N, density=0.1, format="csr", random_state=rng)
    matrix = ((upper + upper.T) > 0).astype(float).tocsr()
    matrix.setdiag(0.0)
    matrix.eliminate_zeros()
    return matrix


@pytest.fixture(scope="module")
def factored_model(adjacency):
    """A factored SLAMPRED-H fitted on the shared graph."""
    return SlamPredH(
        factored=True,
        svd_rank=10,
        inner_iterations=6,
        outer_iterations=3,
        tolerance=1e-4,
    ).fit_adjacency(adjacency)


@pytest.fixture(scope="module")
def dense_twin(factored_model):
    """A dense predictor over the factored model's materialized scores."""
    return FrozenPredictor(
        factored_model.score_matrix, metadata={"name": "dense-twin"}
    )


class TestPersistenceRoundTrip:
    def test_reload_is_score_identical(self, factored_model, tmp_path):
        path = str(tmp_path / "model")
        save_predictor(factored_model, path)
        loaded = load_predictor(path)
        assert isinstance(loaded, FrozenFactoredPredictor)
        assert loaded.factored
        assert loaded.n_users == N
        np.testing.assert_array_equal(
            loaded.score_matrix, factored_model.score_matrix
        )
        pairs = [(0, 1), (3, 40), (7, 7), (20, 11)]
        np.testing.assert_array_equal(
            loaded.score_pairs(pairs), factored_model.score_pairs(pairs)
        )

    def test_metadata_survives(self, factored_model, tmp_path):
        path = str(tmp_path / "model")
        save_predictor(factored_model, path)
        loaded = load_predictor(path)
        assert loaded.metadata["name"] == "SLAMPRED-H"
        assert loaded.metadata["factored"] is True
        assert loaded.metadata["gamma"] == factored_model.gamma

    def test_archive_stores_factors_not_matrix(
        self, factored_model, tmp_path
    ):
        path = str(tmp_path / "model")
        save_predictor(factored_model, path)
        files = os.listdir(path)
        assert "score_matrix.npy" not in files
        assert "factor_u.npy" in files
        assert "residual_data.npy" in files


class TestIntegrity:
    def _corrupted(self, factored_model, tmp_path, key):
        path = str(tmp_path / "model")
        save_predictor(factored_model, path)
        array_path = os.path.join(path, f"{key}.npy")
        array = np.load(array_path)
        flat = array.ravel()
        flat[flat.size // 2] += 1.0  # one flipped value, digest kept as-is
        np.save(array_path, array)
        return path

    @pytest.mark.parametrize("key", ["factor_u", "factor_s", "residual_data"])
    def test_corrupt_factor_rejected(self, factored_model, tmp_path, key):
        path = self._corrupted(factored_model, tmp_path, key)
        with pytest.raises(ArtifactCorruptError, match="integrity"):
            load_predictor(path)

    def test_inconsistent_factors_rejected(self, factored_model, tmp_path):
        """Shape-breaking tampering fails cleanly even with a fixed digest."""
        path = str(tmp_path / "model")
        save_predictor(factored_model, path)
        indptr_path = os.path.join(path, "residual_indptr.npy")
        np.save(indptr_path, np.load(indptr_path)[:-3])
        with pytest.raises(SerializationError):
            load_predictor(path)

    def test_truncated_file_rejected(self, factored_model, tmp_path):
        path = str(tmp_path / "model")
        save_predictor(factored_model, path)
        factor_path = os.path.join(path, "factor_u.npy")
        with open(factor_path, "r+b") as handle:
            handle.truncate(os.path.getsize(factor_path) // 2)
        with pytest.raises(SerializationError):
            load_predictor(path)


class TestArtifactStore:
    @pytest.fixture(scope="class")
    def store(self, factored_model, adjacency, tmp_path_factory):
        root = str(tmp_path_factory.mktemp("factored-store"))
        store = ArtifactStore(root)
        store.publish(factored_model, graph=adjacency, meta={"origin": "test"})
        return store

    def test_manifest_kind_and_users(self, store):
        manifest = store.manifest(1)
        assert manifest["kind"] == "factored"
        assert manifest["n_users"] == N

    def test_file_checksums_hold(self, store):
        manifest = store.manifest(1)
        for filename, entry in manifest["files"].items():
            path = os.path.join(store.path(1), filename)
            assert file_sha256(path) == entry["sha256"]

    def test_load_round_trip(self, store, factored_model, adjacency):
        artifact = store.load()
        assert isinstance(artifact.predictor, FrozenFactoredPredictor)
        assert artifact.n_users == N
        assert sparse.issparse(artifact.adjacency)
        assert (
            abs(artifact.adjacency - adjacency)
        ).nnz == 0
        np.testing.assert_array_equal(
            artifact.predictor.score_matrix, factored_model.score_matrix
        )

    def test_corrupt_factor_rejected_behind_valid_checksums(
        self, factored_model, adjacency, tmp_path
    ):
        """Defense in depth: tampering that also rewrites the manifest's
        file hash still trips the inner factored content digest."""
        store = ArtifactStore(str(tmp_path / "store"))
        store.publish(factored_model, graph=adjacency)
        factor_path = os.path.join(store.path(1), "factor_vt.npy")
        factor = np.load(factor_path)
        factor.ravel()[0] += 0.5
        np.save(factor_path, factor)
        manifest_path = os.path.join(store.path(1), "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["files"]["factor_vt.npy"]["sha256"] = file_sha256(factor_path)
        manifest["files"]["factor_vt.npy"]["bytes"] = os.path.getsize(factor_path)
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ArtifactCorruptError):
            store.load()


class TestServingParity:
    @pytest.fixture(scope="class")
    def services(self, factored_model, dense_twin, adjacency, tmp_path_factory):
        """A factored-backed and a dense-backed service over equal scores."""
        factored_store = ArtifactStore(
            str(tmp_path_factory.mktemp("serve-factored"))
        )
        factored_store.publish(factored_model, graph=adjacency)
        dense_store = ArtifactStore(str(tmp_path_factory.mktemp("serve-dense")))
        dense_store.publish(
            dense_twin, graph=np.asarray(adjacency.todense())
        )
        return (
            LinkPredictionService(factored_store),
            LinkPredictionService(dense_store),
        )

    @staticmethod
    def _assert_rankings_match(left, right):
        """Same candidates in the same order; scores to 1e-9.

        The factored service scores a row through one ``u_i Vᵀ`` matvec
        while the dense twin was materialized through ``to_dense()`` —
        different summation orders, so the floats agree only to ulps.
        """
        assert [v for v, _ in left] == [v for v, _ in right]
        for (_, a), (_, b) in zip(left, right):
            assert a == pytest.approx(b, rel=1e-9, abs=1e-12)

    def test_top_k_identical(self, services):
        factored, dense = services
        for user in (0, 7, 23, N - 1):
            self._assert_rankings_match(
                factored.top_k(user, k=10), dense.top_k(user, k=10)
            )

    def test_batch_top_k_identical(self, services):
        factored, dense = services
        users = [1, 5, 9, 30]
        left = factored.batch_top_k(users, k=5)
        right = dense.batch_top_k(users, k=5)
        assert len(left) == len(right) == len(users)
        for left_ranking, right_ranking in zip(left, right):
            self._assert_rankings_match(left_ranking, right_ranking)

    def test_score_identical(self, services):
        factored, dense = services
        rng = np.random.default_rng(5)
        for u, v in zip(rng.integers(0, N, 50), rng.integers(0, N, 50)):
            assert factored.score(int(u), int(v)) == pytest.approx(
                dense.score(int(u), int(v)), abs=1e-12
            )

    def test_known_links_excluded(self, services, adjacency):
        factored, _ = services
        links = adjacency.tocoo()
        user = int(links.row[0])
        neighbors = set(
            adjacency.indices[
                adjacency.indptr[user] : adjacency.indptr[user + 1]
            ]
        )
        ranked = {v for v, _ in factored.top_k(user, k=N)}
        assert not ranked.intersection(neighbors)
        assert user not in ranked

    def test_is_known_link_parity(self, services):
        factored, dense = services
        rng = np.random.default_rng(9)
        for u, v in zip(rng.integers(0, N, 40), rng.integers(0, N, 40)):
            assert factored.is_known_link(int(u), int(v)) == (
                dense.is_known_link(int(u), int(v))
            )
