"""Versioned on-disk store for fitted link-prediction artifacts.

An :class:`ArtifactStore` is a plain directory holding one sub-directory per
published version::

    store/
    ├── v0001/
    │   ├── manifest.json    schema version, model name, hyper-parameters,
    │   │                    per-file sha256 checksums
    │   ├── model.npz        the predictor (save_predictor format)
    │   └── graph.npz        optional: known-link adjacency for exclusion
    └── v0002/
        └── …

Versions are immutable once published: ``publish`` writes into a hidden
staging directory and renames it into place, so readers never observe a
half-written version, and ``load`` re-hashes every file against the
manifest before deserializing.  All failure modes surface as
:class:`~repro.exceptions.SerializationError` with the offending path in
the message.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import time
import zipfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np
from scipy import sparse

from repro.exceptions import ArtifactCorruptError, SerializationError
from repro.models.base import MatrixPredictor
from repro.models.persistence import (
    FACTORED_LAYOUT_MODEL_JSON,
    FrozenPredictor,
    load_factored_layout,
    load_predictor,
    save_factored_layout,
    save_predictor,
)
from repro.reliability.faults import fault_point
from repro.serving.candidates import DenseCandidates, FactoredCandidates

MANIFEST_SCHEMA_VERSION = 1
"""Bumped whenever the manifest.json layout changes incompatibly."""

_MANIFEST = "manifest.json"
_MODEL_FILE = "model.npz"
GRAPH_FILE = "graph.npz"
"""The optional known-link graph archive inside a version directory."""
_VERSION_DIR = re.compile(r"^v(\d{4,})$")
_STAGING_PREFIX = ".staging-"


_HASH_CHUNK_BYTES = 1 << 17
"""Read window for :func:`file_sha256` — one reused 128 KiB buffer, so
verifying arbitrarily large artifact files never allocates more than this
on the heap (part of the zero-copy ``reload()`` budget)."""


def file_sha256(path: str) -> str:
    """Sha256 hex digest of a file's bytes (streamed, constant memory).

    Reads into one preallocated buffer via ``readinto`` instead of
    allocating a fresh ``bytes`` per chunk, keeping the peak heap cost of
    hashing a multi-gigabyte factor file at :data:`_HASH_CHUNK_BYTES`.
    """
    hasher = hashlib.sha256()
    buffer = bytearray(_HASH_CHUNK_BYTES)
    view = memoryview(buffer)
    with open(path, "rb", buffering=0) as handle:
        while True:
            read = handle.readinto(buffer)
            if not read:
                break
            hasher.update(view[:read])
    return hasher.hexdigest()


@dataclass
class LoadedArtifact:
    """One fully-validated artifact pulled out of the store.

    Attributes
    ----------
    version:
        The integer version number that was loaded.
    manifest:
        The parsed ``manifest.json`` of that version.
    predictor:
        The deserialized (refit-proof) predictor.
    adjacency:
        The known-link adjacency published alongside the model, or ``None``
        when the publisher provided no graph.
    """

    version: int
    manifest: Dict
    predictor: FrozenPredictor
    adjacency: Optional[np.ndarray] = field(default=None, repr=False)
    """Dense ndarray for dense artifacts; a scipy CSR matrix when the
    publisher provided a sparse graph (factored artifacts)."""

    @property
    def n_users(self) -> int:
        """Number of users covered by the predictor.

        Reads the predictor's ``n_users`` property — O(1) for factored
        artifacts, which never materialize a dense score matrix.
        """
        return int(self.predictor.n_users)

    def candidates(self, tracer=None, registry=None):
        """This artifact's candidate source for the serving layer.

        Dense predictors pre-mask their full score matrix
        (:class:`~repro.serving.candidates.DenseCandidates`); factored
        ones compute rows on demand from the O(nk) factors
        (:class:`~repro.serving.candidates.FactoredCandidates`), so
        install cost and resident memory stay O(nk) at any user count.
        Neither needs the service's telemetry sinks.
        """
        if getattr(self.predictor, "factored", False):
            return FactoredCandidates(self.predictor, self.adjacency)
        return DenseCandidates(self.predictor, self.adjacency)


class VersionedStore:
    """Directory-per-version mechanics shared by every artifact store.

    One copy of what :class:`ArtifactStore` and
    :class:`~repro.sharding.artifacts.ShardedArtifactStore` have in
    common: version directories, latest-version resolution, the staged
    publish (write into a hidden directory, rename into place, clean up
    on failure), the schema-checked manifest read and the per-file
    sha256 verification.  Subclasses choose the file set, the manifest
    fields and :attr:`SCHEMA_VERSION`.

    Parameters
    ----------
    root:
        The store directory; created (with parents) on first use.
    """

    SCHEMA_VERSION = MANIFEST_SCHEMA_VERSION
    """The manifest ``schema_version`` this store writes and reads."""

    def __init__(self, root: str):
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)

    # -- layout ---------------------------------------------------------
    def path(self, version: int) -> str:
        """Directory holding the given version."""
        return os.path.join(self.root, f"v{int(version):04d}")

    def versions(self) -> List[int]:
        """All published version numbers, ascending."""
        found = []
        for entry in os.listdir(self.root):
            match = _VERSION_DIR.match(entry)
            if match and os.path.isfile(
                os.path.join(self.root, entry, _MANIFEST)
            ):
                found.append(int(match.group(1)))
        return sorted(found)

    def resolve_latest(self) -> int:
        """The highest published version number (raises when empty)."""
        versions = self.versions()
        if not versions:
            raise SerializationError(
                f"artifact store {self.root} holds no published versions"
            )
        return versions[-1]

    # -- publish --------------------------------------------------------
    def _publish_staged(
        self, write: Callable[[str], Dict], adjacency=None
    ) -> int:
        """Stage, fill and rename the next version; returns its number.

        ``write(staging)`` writes the version's model files into the
        staging directory and returns the manifest fields (including
        ``files``); the optional graph, the schema and the version
        number are added here.  Any failure removes the staging
        directory, so readers never observe a half-written version.
        """
        version = (self.versions() or [0])[-1] + 1
        staging = os.path.join(
            self.root, f"{_STAGING_PREFIX}v{version:04d}-{os.getpid()}"
        )
        os.makedirs(staging)
        try:
            manifest = {
                "schema_version": self.SCHEMA_VERSION,
                "version": version,
                **write(staging),
            }
            if adjacency is not None:
                graph_path = os.path.join(staging, GRAPH_FILE)
                _save_graph(graph_path, adjacency)
                manifest["files"][GRAPH_FILE] = self._file_entry(graph_path)
            with open(
                os.path.join(staging, _MANIFEST), "w", encoding="utf-8"
            ) as handle:
                json.dump(manifest, handle, indent=2, sort_keys=True)
            final = self.path(version)
            if os.path.exists(final):
                raise SerializationError(
                    f"version directory {final} already exists; "
                    "concurrent publishers must use distinct stores"
                )
            os.rename(staging, final)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        return version

    @staticmethod
    def _file_entry(path: str) -> Dict:
        return {
            "sha256": file_sha256(path),
            "bytes": os.path.getsize(path),
        }

    # -- read -----------------------------------------------------------
    def manifest(self, version: Optional[int] = None) -> Dict:
        """The parsed, schema-checked manifest of a version (default: latest)."""
        version = self.resolve_latest() if version is None else int(version)
        manifest_path = os.path.join(self.path(version), _MANIFEST)
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except OSError as exc:
            raise SerializationError(
                f"version {version} not found in {self.root}: {exc}"
            ) from exc
        except ValueError as exc:
            raise SerializationError(
                f"corrupt manifest {manifest_path}: {exc}"
            ) from exc
        schema = manifest.get("schema_version")
        if schema != self.SCHEMA_VERSION:
            raise SerializationError(
                f"manifest {manifest_path} has schema version {schema}; "
                f"this build reads version {self.SCHEMA_VERSION}"
            )
        return manifest

    def _verify_file(
        self, version: int, manifest: Dict, filename: str
    ) -> str:
        """Hash-check one manifest file; returns its absolute path."""
        entry = manifest.get("files", {}).get(filename)
        if entry is None:
            raise ArtifactCorruptError(
                f"artifact v{version:04d} manifest lists no file {filename}"
            )
        path = os.path.join(self.path(version), filename)
        if not os.path.isfile(path):
            raise ArtifactCorruptError(
                f"artifact v{version:04d} is missing {filename}"
            )
        actual = file_sha256(path)
        if actual != entry.get("sha256"):
            raise ArtifactCorruptError(
                f"artifact file {path} failed its integrity check: "
                f"manifest says sha256 {entry.get('sha256', '?')[:12]}… "
                f"but the file hashes to {actual[:12]}…"
            )
        return path

    def verify(self, version: Optional[int] = None) -> Dict:
        """Re-hash every file of a version against its manifest.

        Returns the manifest on success; raises
        :class:`~repro.exceptions.ArtifactCorruptError` (a
        :class:`~repro.exceptions.SerializationError`) naming the first
        file whose checksum diverges or that is missing.
        """
        version = self.resolve_latest() if version is None else int(version)
        manifest = self.manifest(version)
        for filename in manifest.get("files", {}):
            self._verify_file(version, manifest, filename)
        return manifest


class ArtifactStore(VersionedStore):
    """Directory-per-version artifact store with integrity validation.

    Parameters
    ----------
    root:
        The store directory; created (with parents) on first use.
    layout:
        On-disk shape of *factored* publishes.  ``"npz"`` (default) keeps
        the single compressed ``model.npz`` archive; ``"npy"`` writes one
        uncompressed ``.npy`` file per factor array plus a ``model.json``
        header, which is the only layout numpy can memory-map.  Dense
        publishes always use ``model.npz``.  Loading is layout-agnostic:
        every store reads both layouts, so the flag only shapes what this
        store *writes*.
    mmap:
        Whether ``load`` maps npy-layout factor arrays with
        ``np.load(..., mmap_mode="r")`` (default) instead of copying them
        onto the heap.  Pass ``False`` — the opt-out for writable paths —
        to materialize ordinary arrays.  Has no effect on ``.npz``
        versions, which numpy cannot map.

    Examples
    --------
    >>> import tempfile
    >>> from repro.models.persistence import FrozenPredictor
    >>> store = ArtifactStore(tempfile.mkdtemp())
    >>> version = store.publish(FrozenPredictor(np.eye(3)))
    >>> store.resolve_latest() == version == 1
    True
    >>> store.load().predictor.score_matrix.shape
    (3, 3)
    """

    def __init__(self, root: str, layout: str = "npz", mmap: bool = True):
        if layout not in ("npz", "npy"):
            raise SerializationError(
                f"layout must be 'npz' or 'npy', got {layout!r}"
            )
        super().__init__(root)
        self.layout = layout
        self.mmap = bool(mmap)

    # -- publish --------------------------------------------------------
    def publish(
        self,
        model: MatrixPredictor,
        graph=None,
        meta: Optional[Dict] = None,
    ) -> int:
        """Write a fitted predictor as the next version; returns its number.

        Parameters
        ----------
        model:
            Any fitted matrix predictor (raises ``NotFittedError`` before
            any disk state is touched if it is not).
        graph:
            Optional known-link structure — a
            :class:`~repro.networks.social.SocialGraph`, a square binary
            adjacency ndarray, or a scipy sparse matrix matching the
            predictor's user count.  Serving uses it to exclude
            already-connected pairs from top-k answers.  Sparse inputs
            stay sparse on disk (CSR arrays), which is how factored
            publishes keep the whole artifact O(nk).
        meta:
            Extra JSON-compatible metadata recorded in the manifest
            (experiment name, training scale, …).
        """
        factored = bool(getattr(model, "factored", False))
        if factored:
            # Fitted check before touching disk; never densifies.
            n_users = int(model.factored_estimate.n_users)
        else:
            n_users = int(model.score_matrix.shape[0])
        adjacency = graph_adjacency(graph, n_users, "predictor")
        npy = factored and self.layout == "npy"

        def write(staging: str) -> Dict:
            if npy:
                # Memory-mappable layout: one raw .npy per factor array.
                written = save_factored_layout(model, staging)
                files = {
                    name: self._file_entry(path)
                    for name, path in sorted(written.items())
                }
            else:
                model_path = os.path.join(staging, _MODEL_FILE)
                save_predictor(model, model_path)
                files = {_MODEL_FILE: self._file_entry(model_path)}
            return {
                "name": model.name,
                "model_class": type(model).__name__,
                "kind": "factored" if factored else "dense",
                "layout": "npy" if npy else "npz",
                "n_users": n_users,
                "created_at": time.time(),  # wall-clock: a timestamp, not a duration
                "hyper_parameters": _scalar_params(model),
                "meta": dict(meta or {}),
                "files": files,
            }

        return self._publish_staged(write, adjacency)

    # -- read -----------------------------------------------------------
    def load(self, version: Optional[int] = None) -> LoadedArtifact:
        """Load and validate a version (default: latest).

        Every file is checksum-verified against the manifest before
        deserialization, and the model archive additionally verifies its
        own embedded content digest.

        Two chaos sites cover this path: ``artifact.slow_read`` (a
        delay-only site modelling a stalled disk or network mount) and
        ``artifact.read`` (raises
        :class:`~repro.exceptions.ArtifactCorruptError`, modelling a read
        that fails integrity validation).
        """
        version = self.resolve_latest() if version is None else int(version)
        fault_point("artifact.slow_read")
        fault_point("artifact.read")
        manifest = self.verify(version)
        directory = self.path(version)
        if FACTORED_LAYOUT_MODEL_JSON in manifest.get("files", {}):
            # Raw-.npy factored layout: map the factor arrays read-only
            # (unless this store opted out), so installing the artifact
            # never copies the O(nk) payload onto the heap.
            predictor = load_factored_layout(
                directory, mmap_mode="r" if self.mmap else None
            )
        else:
            predictor = load_predictor(os.path.join(directory, _MODEL_FILE))
        adjacency = None
        if GRAPH_FILE in manifest.get("files", {}):
            adjacency = graph_adjacency(
                load_graph(os.path.join(directory, GRAPH_FILE)),
                int(predictor.n_users),
                "predictor",
            )
        return LoadedArtifact(
            version=version,
            manifest=manifest,
            predictor=predictor,
            adjacency=adjacency,
        )


def graph_adjacency(graph, n_users: int, owner: str, dense: bool = True):
    """The float adjacency of a graph (``None`` stays ``None``).

    ``graph`` is a :class:`~repro.networks.social.SocialGraph`, an
    ndarray or a scipy sparse matrix; sparse inputs (all inputs when
    ``dense`` is false) become CSR.  Raises
    :class:`~repro.exceptions.SerializationError` unless it is
    ``n_users`` square.
    """
    if graph is None:
        return None
    adjacency = getattr(graph, "adjacency", graph)
    if sparse.issparse(adjacency) or not dense:
        adjacency = sparse.csr_matrix(adjacency, dtype=float)
    else:
        adjacency = np.asarray(adjacency, dtype=float)
    if adjacency.shape != (n_users, n_users):
        raise SerializationError(
            f"graph adjacency {adjacency.shape} does not match the "
            f"{owner}'s {(n_users, n_users)}"
        )
    return adjacency


def _save_graph(graph_path: str, adjacency) -> None:
    """Write a known-link graph archive: sparse as CSR arrays, else dense."""
    if sparse.issparse(adjacency):
        np.savez_compressed(
            graph_path,
            format=np.frombuffer(b"csr", dtype=np.uint8),
            data=adjacency.data,
            indices=adjacency.indices,
            indptr=adjacency.indptr,
            shape=np.asarray(adjacency.shape, dtype=np.int64),
        )
    else:
        np.savez_compressed(graph_path, adjacency=adjacency)


def load_graph(graph_path: str):
    """Read a published graph archive — dense ndarray or sparse CSR.

    The archive self-describes: a ``format`` marker (b"csr") selects the
    sparse layout, otherwise the legacy dense ``adjacency`` array is read.
    """
    try:
        with np.load(graph_path) as data:
            if "format" in data.files:
                marker = bytes(np.asarray(data["format"])).decode("ascii")
                if marker != "csr":
                    raise SerializationError(
                        f"unknown graph format {marker!r} in {graph_path}"
                    )
                shape = tuple(int(v) for v in data["shape"])
                return sparse.csr_matrix(
                    (data["data"], data["indices"], data["indptr"]),
                    shape=shape,
                )
            return np.asarray(data["adjacency"], dtype=float)
    except (KeyError, ValueError, OSError, zipfile.BadZipFile) as exc:
        raise SerializationError(
            f"cannot load graph archive {graph_path}: {exc}"
        ) from exc


def _scalar_params(model: MatrixPredictor) -> Dict:
    """JSON-safe scalar hyper-parameters of a model (same rule as persistence)."""
    params = {}
    for key, value in vars(model).items():
        if key.startswith("_") or key in ("metadata",):
            continue
        if isinstance(value, (int, float, str, bool)) or value is None:
            params[key] = value
        elif isinstance(value, (list, tuple)) and all(
            isinstance(v, (int, float, str, bool)) for v in value
        ):
            params[key] = list(value)
    if isinstance(model, FrozenPredictor):
        params.update(
            {
                k: v
                for k, v in model.metadata.items()
                if isinstance(v, (int, float, str, bool, list)) or v is None
            }
        )
    return params
