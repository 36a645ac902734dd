"""Persistence for fitted matrix predictors.

A fitted predictor is, operationally, its estimate S plus the
hyper-parameters that produced it.  :func:`save_predictor` writes it into
a directory and :func:`load_predictor` reads it back, so a trained
predictor can be shipped to a serving process that never imports the
training stack.  Every predictor uses one layout::

    model.json          format marker, kind, metadata blob, content digest
    score_matrix.npy    dense predictors: the n×n scores
    factor_u.npy …      factored predictors (DESIGN.md §13): U, σ, Vᵀ, the
                        CSR residual arrays and n_users — the O(nk)
                        split ``U diag(σ) Vᵀ + R``; the n×n matrix is
                        never formed

Each array is one uncompressed ``.npy`` file and loads read-only and
memory-mapped: loading touches O(1) heap whatever the array sizes, and
the kernel pages bytes in on first access.  :func:`content_digest` binds
the arrays to the metadata blob; loading recomputes it by streaming over
the mapped arrays in bounded chunks, so a truncated or bit-flipped file
fails with :class:`~repro.exceptions.ArtifactCorruptError` instead of
silently serving corrupted scores — even when the enclosing store's
per-file checksums were rewritten to match.

Loaded predictors come back as :class:`FrozenPredictor` or
:class:`FrozenFactoredPredictor` — scoring works, refitting is
deliberately unsupported (retrain from source data instead).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List

import numpy as np

from repro.exceptions import ArtifactCorruptError, SerializationError
from repro.models.base import MatrixPredictor, TransferTask

MODEL_JSON = "model.json"
"""The header file of a predictor directory."""

_FORMAT = "predictor-npy"
_FORMAT_VERSION = 1
_ARRAYS = {
    "dense": ("score_matrix",),
    "factored": (
        "factor_u",
        "factor_s",
        "factor_vt",
        "residual_data",
        "residual_indices",
        "residual_indptr",
        "n_users",
    ),
}
"""Array names of each predictor kind, in a fixed order."""


class FrozenPredictor(MatrixPredictor):
    """A deserialized score-matrix predictor.

    Parameters
    ----------
    score_matrix:
        The fitted ``n×n`` confidence matrix.
    metadata:
        The saved model's name and hyper-parameters (read-only diagnostics).
    """

    def __init__(self, score_matrix: np.ndarray, metadata: Dict = None):
        super().__init__()
        # asarray also demotes a loaded np.memmap to a plain ndarray view
        # of the same pages, so scalar reads cost what they cost on the heap.
        score_matrix = np.asarray(score_matrix, dtype=float)
        if score_matrix.ndim != 2 or score_matrix.shape[0] != score_matrix.shape[1]:
            raise SerializationError(
                f"score matrix must be square, got {score_matrix.shape}"
            )
        self._score_matrix = score_matrix
        self.metadata = dict(metadata or {})
        self._fitted = True

    @property
    def name(self) -> str:
        return self.metadata.get("name", "FrozenPredictor")

    def _fit(self, task: TransferTask) -> None:
        raise SerializationError(
            "FrozenPredictor cannot be refitted; train a fresh model instead"
        )


class FrozenFactoredPredictor(MatrixPredictor):
    """A deserialized factored O(nk) predictor.

    Pair scores are ``max(S_uv, 0)`` with a zero diagonal, computed from
    the factors in O(k) per pair — the same (unnormalized) convention the
    ``factored=True`` training path uses, so a publish → load round trip
    is score-identical.

    Parameters
    ----------
    estimate:
        The fitted :class:`~repro.factored.estimate.FactoredEstimate`.
    metadata:
        The saved model's name and hyper-parameters (read-only diagnostics).
    """

    factored = True
    """Marks the predictor as factored for publish/serving dispatch."""

    def __init__(self, estimate, metadata: Dict = None):
        super().__init__()
        self.estimate = estimate
        self.metadata = dict(metadata or {})
        self._fitted = True

    @property
    def name(self) -> str:
        """The saved model's display name."""
        return self.metadata.get("name", "FrozenFactoredPredictor")

    @property
    def factored_estimate(self):
        """The underlying factored estimate (alias of ``estimate``)."""
        return self.estimate

    @property
    def n_users(self) -> int:
        """Users covered — O(1), no dense materialization."""
        return self.estimate.n_users

    @property
    def score_matrix(self) -> np.ndarray:
        """The dense n×n scores — **materializes** O(n²) memory.

        A parity/debug oracle for small n; serving-scale consumers should
        score through :meth:`score_pairs` or :attr:`estimate` rows.
        """
        dense = self.estimate.to_dense()
        np.maximum(dense, 0.0, out=dense)
        np.fill_diagonal(dense, 0.0)
        return dense

    def _score_pairs(self, pairs) -> np.ndarray:
        rows = np.array([p[0] for p in pairs], dtype=int)
        cols = np.array([p[1] for p in pairs], dtype=int)
        scores = np.maximum(self.estimate.entries(rows, cols), 0.0)
        scores[rows == cols] = 0.0
        return scores

    def _fit(self, task: TransferTask) -> None:
        raise SerializationError(
            "FrozenFactoredPredictor cannot be refitted; train a fresh "
            "model instead"
        )


_DIGEST_CHUNK_BYTES = 1 << 16
"""Hashing window for :func:`content_digest` — small enough that verifying
a memory-mapped predictor never materializes more than one chunk of array
bytes on the Python heap (the zero-copy reload guarantee)."""


def _hash_array(hasher, array: np.ndarray) -> None:
    """Feed one array's C-order bytes to ``hasher`` in bounded chunks.

    Contiguous arrays (including ``np.load(..., mmap_mode="r")`` memmaps)
    are hashed straight from their buffer — no full-array copy is ever
    made, which is what keeps artifact verification O(chunk) in resident
    memory regardless of array size.  The byte stream is identical to
    ``np.ascontiguousarray(array).tobytes()``, so digests are layout- and
    version-stable.
    """
    if array.size == 0:
        return  # tobytes() of an empty array is b"": contribute nothing
    if not array.flags["C_CONTIGUOUS"]:
        array = np.ascontiguousarray(array)
    view = memoryview(array.reshape(-1).view(np.uint8))
    step = _DIGEST_CHUNK_BYTES
    for start in range(0, len(view), step):
        hasher.update(view[start : start + step])


def content_digest(arrays: Dict, metadata_json: str) -> str:
    """Sha256 hex digest binding a predictor's arrays to its metadata blob.

    Arrays are hashed in sorted key order — name, shape, contiguous
    float/int bytes — so corrupting any single array file (or swapping
    two) changes the digest.  Hashing streams each array in bounded
    chunks, so verifying memory-mapped arrays stays constant-memory.
    """
    hasher = hashlib.sha256()
    for key in sorted(arrays):
        array = np.asarray(arrays[key])
        hasher.update(key.encode("ascii"))
        hasher.update(repr(array.shape).encode("ascii"))
        _hash_array(hasher, array)
    hasher.update(metadata_json.encode("utf-8"))
    return hasher.hexdigest()


def _factored_arrays(estimate) -> Dict:
    """The arrays of a factored estimate (all O(nk))."""
    residual = estimate.residual.tocsr()
    return {
        "factor_u": np.ascontiguousarray(estimate.u, dtype=float),
        "factor_s": np.ascontiguousarray(estimate.s, dtype=float),
        "factor_vt": np.ascontiguousarray(estimate.vt, dtype=float),
        "residual_data": np.ascontiguousarray(residual.data, dtype=float),
        "residual_indices": np.ascontiguousarray(
            residual.indices, dtype=np.int64
        ),
        "residual_indptr": np.ascontiguousarray(
            residual.indptr, dtype=np.int64
        ),
        "n_users": np.array([estimate.n_users], dtype=np.int64),
    }


def predictor_metadata(model: MatrixPredictor) -> Dict:
    """The model name plus every scalar/flat-sequence hyper-parameter.

    Re-saving a loaded predictor keeps its original metadata, so
    hyper-parameters survive load → save round trips.
    """
    metadata = {}
    if isinstance(getattr(model, "metadata", None), dict):
        metadata.update(
            {
                key: value
                for key, value in model.metadata.items()
                if isinstance(value, (int, float, str, bool, list))
                or value is None
            }
        )
    metadata.update({"name": model.name, "class": type(model).__name__})
    for key, value in vars(model).items():
        if key.startswith("_") or key == "metadata":
            continue
        if isinstance(value, (int, float, str, bool)) or value is None:
            metadata[key] = value
        elif isinstance(value, (list, tuple)) and all(
            isinstance(v, (int, float, str, bool)) for v in value
        ):
            metadata[key] = list(value)
    return metadata


def save_arrays(directory: str, arrays: Dict, prefix: str = "") -> List[str]:
    """Write each array as an uncompressed ``<prefix><name>.npy``.

    Returns the written paths, in ``arrays`` order.
    """
    paths = []
    for key, array in arrays.items():
        paths.append(os.path.join(directory, f"{prefix}{key}.npy"))
        np.save(paths[-1], np.ascontiguousarray(array))
    return paths


def load_arrays(directory: str, keys, prefix: str = "") -> Dict:
    """Map ``<prefix><name>.npy`` read-only for every name in ``keys``.

    Raises ``OSError``/``ValueError`` on a missing or malformed file.
    """
    return {
        key: np.load(
            os.path.join(directory, f"{prefix}{key}.npy"),
            mmap_mode="r",
            allow_pickle=False,
        )
        for key in keys
    }


def save_predictor(model: MatrixPredictor, directory: str) -> List[str]:
    """Write a fitted predictor into ``directory`` (created if needed).

    Dense predictors write ``score_matrix.npy``; factored ones
    (``model.factored`` truthy) write their O(nk) arrays instead, never
    forming the dense matrix.  ``model.json`` carries the metadata blob
    and the :func:`content_digest` that :func:`load_predictor` verifies.
    Raises ``NotFittedError`` before touching disk when the model is not
    fitted.  Returns the path of every file written, so a store can
    checksum and manifest them.
    """
    if getattr(model, "factored", False):
        kind, arrays = "factored", _factored_arrays(model.factored_estimate)
    else:
        kind = "dense"
        arrays = {
            "score_matrix": np.ascontiguousarray(model.score_matrix, dtype=float)
        }
    metadata_json = json.dumps(predictor_metadata(model))
    os.makedirs(directory, exist_ok=True)
    paths = save_arrays(directory, arrays)
    header = {
        "format": _FORMAT,
        "format_version": _FORMAT_VERSION,
        "kind": kind,
        "metadata_json": metadata_json,
        "digest": content_digest(arrays, metadata_json),
    }
    paths.append(os.path.join(directory, MODEL_JSON))
    with open(paths[-1], "w", encoding="utf-8") as handle:
        json.dump(header, handle, indent=2, sort_keys=True)
    return paths


def load_predictor(directory: str) -> MatrixPredictor:
    """Read a predictor written by :func:`save_predictor`.

    Arrays come back as read-only memory maps (a dense score matrix as a
    plain ``np.ndarray`` view of its map); the content digest is
    recomputed over them before anything is deserialized.

    Raises
    ------
    SerializationError
        Unreadable or missing files, or an unsupported format.
    ArtifactCorruptError
        Array or metadata bytes that no longer match the stored digest.
    """
    header_path = os.path.join(directory, MODEL_JSON)
    try:
        with open(header_path, "r", encoding="utf-8") as handle:
            header = json.load(handle)
        form = (header.get("format"), header.get("format_version"))
        kind = header.get("kind")
        if form != (_FORMAT, _FORMAT_VERSION) or kind not in _ARRAYS:
            raise SerializationError(
                f"unsupported predictor format {form[0]!r} v{form[1]!r} "
                f"({kind!r}) in {header_path}"
            )
        metadata_json = str(header["metadata_json"])
        stored = str(header["digest"])
        arrays = load_arrays(directory, _ARRAYS[kind])
    except (OSError, ValueError, KeyError, AttributeError) as exc:
        raise SerializationError(
            f"cannot load predictor {directory}: {exc}"
        ) from exc
    actual = content_digest(arrays, metadata_json)
    if actual != stored:
        raise ArtifactCorruptError(
            f"predictor {directory} failed its integrity check: stored "
            f"sha256 {stored[:12]}… but content hashes to {actual[:12]}… "
            "(truncated or tampered file)"
        )
    try:
        metadata = json.loads(metadata_json)
    except ValueError as exc:
        raise SerializationError(
            f"cannot load predictor {directory}: {exc}"
        ) from exc
    if kind == "dense":
        return FrozenPredictor(arrays["score_matrix"], metadata)
    return FrozenFactoredPredictor(
        _estimate_from_arrays(arrays, directory), metadata
    )


def _estimate_from_arrays(arrays: Dict, path: str):
    """Rebuild a :class:`FactoredEstimate` from validated arrays."""
    from scipy import sparse

    from repro.factored.estimate import FactoredEstimate

    n = int(arrays["n_users"][0])
    try:
        residual = sparse.csr_matrix(
            (
                arrays["residual_data"],
                arrays["residual_indices"],
                arrays["residual_indptr"],
            ),
            shape=(n, n),
        )
        return FactoredEstimate(
            arrays["factor_u"], arrays["factor_s"], arrays["factor_vt"], residual
        )
    except ValueError as exc:
        raise SerializationError(
            f"cannot load predictor {path}: inconsistent factors ({exc})"
        ) from exc
