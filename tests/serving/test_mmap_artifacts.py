"""Zero-copy artifact loading: the npy layout, mmap reloads, chunked digests.

Every artifact is one uncompressed ``.npy`` file per array, so
:func:`numpy.load` memory-maps them on read; a hot-swap ``reload()``
then *maps* pages instead of copying O(nk) floats.  These tests pin the
legs of that contract:

* layout — the store accepts only the ``npy`` layout and manifests the
  header plus one file per array;
* integrity — the per-array content digest still catches a tampered
  array even when the manifest checksums were rewritten to match;
* zero-copy — loaded arrays are views of file maps, and tracemalloc
  proves a reload of an n=5000 factored artifact allocates less than 5%
  of the factor bytes (the residual graph-side conversions are all that
  remains).
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from repro.exceptions import ArtifactCorruptError
from repro.factored.estimate import FactoredEstimate
from repro.models.persistence import (
    FrozenFactoredPredictor,
    FrozenPredictor,
    load_predictor,
    save_predictor,
)
from repro.serving.artifacts import ArtifactStore
from repro.serving.service import LinkPredictionService


def _factored_predictor(n=48, k=6, seed=0):
    """A small deterministic factored predictor."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(n, k))
    s = np.abs(rng.normal(size=k)) + 0.5
    vt = rng.normal(size=(k, n))
    estimate = FactoredEstimate(u, s, vt, sparse.csr_matrix((n, n)))
    return FrozenFactoredPredictor(
        estimate, {"name": "mmap-test", "gamma": 0.1}
    )


def _adjacency(n, nnz_target, seed=1):
    """A sparse symmetric boolean adjacency with roughly nnz_target links."""
    rng = np.random.default_rng(seed)
    density = nnz_target / (2 * n * n)  # symmetrization doubles the count
    upper = sparse.random(n, n, density=density, format="csr", random_state=rng)
    return ((upper + upper.T) > 0).astype(float).tocsr()


def _is_memmap_view(array):
    """Whether the array's view chain bottoms out in a ``np.memmap``."""
    base = array
    while isinstance(base, np.ndarray):
        if isinstance(base, np.memmap):
            return True
        base = base.base
    return False


class TestNpyLayoutParity:
    def test_npy_manifest_declares_layout_and_verifies(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"), layout="npy")
        store.publish(_factored_predictor())
        manifest = store.verify()
        assert manifest["kind"] == "factored"
        assert "model.json" in manifest["files"]
        assert set(manifest["files"]) - {"model.json"} == {
            f"{name}.npy"
            for name in (
                "factor_u",
                "factor_s",
                "factor_vt",
                "residual_data",
                "residual_indices",
                "residual_indptr",
                "n_users",
            )
        }

    def test_unknown_layout_rejected(self, tmp_path):
        from repro.exceptions import SerializationError

        with pytest.raises(SerializationError, match="layout"):
            ArtifactStore(str(tmp_path / "store"), layout="tar")
        with pytest.raises(SerializationError, match="layout"):
            ArtifactStore(str(tmp_path / "store"), layout="npz")


class TestNpyIntegrity:
    def test_tampered_factor_caught_behind_rewritten_checksums(
        self, tmp_path
    ):
        # Flip bytes in one .npy AND rewrite the manifest sha256 to
        # match: the outer checksums pass, so only the inner content
        # digest in model.json can catch it — and it must.
        import json
        import os

        from repro.serving.artifacts import file_sha256

        store = ArtifactStore(str(tmp_path / "store"), layout="npy")
        version = store.publish(_factored_predictor())
        directory = store.path(version)
        target = os.path.join(directory, "factor_u.npy")
        data = bytearray(open(target, "rb").read())
        data[-8:] = bytes(8)  # zero one trailing float
        with open(target, "wb") as handle:
            handle.write(data)
        manifest_path = os.path.join(directory, "manifest.json")
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest["files"]["factor_u.npy"]["sha256"] = file_sha256(target)
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ArtifactCorruptError, match="integrity"):
            store.load(version)

    def test_missing_array_file_rejected(self, tmp_path):
        import os

        store = ArtifactStore(str(tmp_path / "store"), layout="npy")
        version = store.publish(_factored_predictor())
        os.unlink(os.path.join(store.path(version), "factor_s.npy"))
        with pytest.raises(ArtifactCorruptError):
            store.load(version)


class TestZeroCopyReload:
    def test_mmap_load_views_are_not_copies(self, tmp_path):
        save_predictor(_factored_predictor(), str(tmp_path))
        loaded = load_predictor(str(tmp_path))
        estimate = loaded.estimate
        for array in (estimate.u, estimate.s, estimate.vt):
            # FactoredEstimate re-wraps with np.asarray/ravel, which
            # demotes the memmap subclass to a plain ndarray *view*
            # (possibly a chain of views) — the pages at the bottom are
            # still the file's, not a heap copy.
            assert not array.flags["OWNDATA"]
            assert _is_memmap_view(array)

    def test_dense_matrix_is_a_plain_view_of_its_map(self, tmp_path):
        matrix = np.arange(16.0).reshape(4, 4)
        save_predictor(FrozenPredictor(matrix), str(tmp_path))
        loaded = load_predictor(str(tmp_path)).score_matrix
        # A plain ndarray (cheap scalar reads), backed by the file map.
        assert type(loaded) is np.ndarray
        assert _is_memmap_view(loaded)
        assert not loaded.flags["WRITEABLE"]
        assert np.array_equal(loaded, matrix)

    def test_reload_allocates_under_five_percent_of_factor_bytes(
        self, tmp_path
    ):
        # The headline zero-copy promise at serving scale: reload() of
        # an n=5000 factored artifact maps the factors instead of
        # copying them.  tracemalloc tracks Python heap allocations —
        # mmap page-ins are not allocations — so a <5% peak proves no
        # code path materialized the factor arrays.
        n, k = 5000, 64
        rng = np.random.default_rng(3)
        u = rng.normal(size=(n, k))
        s = np.abs(rng.normal(size=k)) + 0.5
        vt = rng.normal(size=(k, n))
        factor_bytes = u.nbytes + s.nbytes + vt.nbytes
        predictor = FrozenFactoredPredictor(
            FactoredEstimate(u, s, vt, sparse.csr_matrix((n, n))),
            {"name": "mmap-large"},
        )
        adjacency = _adjacency(n, 5000, seed=4)
        store = ArtifactStore(str(tmp_path / "store"), layout="npy")
        store.publish(predictor, graph=adjacency)
        service = LinkPredictionService(store, cache_size=4)
        store.publish(predictor, graph=adjacency)  # v2 for the reload
        tracemalloc.start()
        try:
            assert service.reload() is True
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * factor_bytes, (
            f"reload() allocated {peak} bytes — "
            f"{100 * peak / factor_bytes:.1f}% of the {factor_bytes} "
            "factor bytes; the mmap path is copying"
        )
        # The reloaded service still answers.
        assert len(service.top_k(0, 5)) == 5
