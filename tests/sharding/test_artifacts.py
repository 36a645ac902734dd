"""Sharded artifact store: manifests, integrity, partial degradation."""

from __future__ import annotations

import os

import numpy as np
import pytest
from scipy import sparse

from repro.exceptions import SerializationError
from repro.reliability.faults import GLOBAL_INJECTOR
from repro.sharding.artifacts import ShardedArtifactStore
from repro.sharding.model import ShardedSlamPred


@pytest.fixture(scope="module")
def fitted():
    """A small fitted sharded model and its training graph."""
    rng = np.random.default_rng(5)
    n = 120
    labels = np.arange(n) // (n // 2)
    probs = np.where(labels[:, None] == labels[None, :], 0.3, 0.02)
    dense = (rng.random((n, n)) < probs).astype(float)
    dense = np.maximum(dense, dense.T)
    np.fill_diagonal(dense, 0.0)
    adjacency = sparse.csr_matrix(dense)
    model = ShardedSlamPred(
        n_shards=2,
        svd_rank=6,
        inner_iterations=3,
        outer_iterations=2,
        use_processes=False,
    )
    model.fit(adjacency, labels=labels)
    return model, adjacency


@pytest.fixture()
def store(fitted, tmp_path):
    model, adjacency = fitted
    store = ShardedArtifactStore(str(tmp_path / "store"))
    store.publish(model, graph=adjacency, meta={"note": "test"})
    return store


def _corrupt(path):
    with open(path, "r+b") as handle:
        handle.seek(12)
        handle.write(b"\xde\xad\xbe\xef")


class TestPublishLoad:
    def test_round_trip_preserves_estimates(self, fitted, store):
        model, _ = fitted
        loaded = store.load()
        assert loaded.version == 1
        assert not loaded.degraded
        assert sorted(loaded.estimates) == [0, 1]
        for s, original in enumerate(model.estimates):
            clone = loaded.estimates[s]
            assert np.array_equal(clone.u, original.u)
            assert np.array_equal(clone.s, original.s)
            assert np.array_equal(
                clone.residual.toarray(), original.residual.toarray()
            )
        assert np.allclose(loaded.scales, model.scales)

    def test_manifest_lists_hashed_files(self, store):
        manifest = store.manifest()
        files = manifest["files"]
        assert set(files) >= {"plan.npz", "shard-000.npz", "shard-001.npz"}
        assert all(len(entry["sha256"]) == 64 for entry in files.values())
        assert manifest["kind"] == "sharded"

    def test_versions_increment(self, fitted, store):
        model, adjacency = fitted
        assert store.publish(model, graph=adjacency) == 2
        assert store.versions() == [1, 2]
        assert store.resolve_latest() == 2

    def test_graph_round_trips(self, fitted, store):
        _, adjacency = fitted
        loaded = store.load()
        assert (loaded.adjacency != adjacency).nnz == 0


class TestIntegrity:
    def test_verify_passes_clean_store(self, store):
        store.verify()

    def test_corrupt_shard_fails_verify(self, store):
        _corrupt(os.path.join(store.path(1), "shard-000.npz"))
        with pytest.raises(SerializationError):
            store.verify()

    def test_corrupt_shard_degrades_lenient_load(self, store):
        _corrupt(os.path.join(store.path(1), "shard-000.npz"))
        loaded = store.load()
        assert loaded.degraded
        assert loaded.missing_shards == [0]
        assert sorted(loaded.estimates) == [1]

    def test_corrupt_plan_is_always_fatal(self, store):
        _corrupt(os.path.join(store.path(1), "plan.npz"))
        with pytest.raises(SerializationError):
            store.load()

    def test_all_shards_corrupt_fails_even_lenient(self, store):
        _corrupt(os.path.join(store.path(1), "shard-000.npz"))
        _corrupt(os.path.join(store.path(1), "shard-001.npz"))
        with pytest.raises(SerializationError):
            store.load()


class TestChaosSite:
    def test_injected_shard_read_fault_degrades(self, store):
        GLOBAL_INJECTOR.arm("sharding.shard_read", times=1)
        try:
            loaded = store.load()
        finally:
            GLOBAL_INJECTOR.reset()
        assert loaded.missing_shards == [0]
        assert sorted(loaded.estimates) == [1]
