"""Versioned on-disk store for fitted link-prediction artifacts.

An :class:`ArtifactStore` is a plain directory holding one sub-directory
per published version.  Every version is a manifest plus memory-mapped
``.npy`` arrays, whatever the model::

    store/
    ├── v0001/                 a dense or factored predictor
    │   ├── manifest.json      schema version, kind, model name,
    │   │                      hyper-parameters, per-file sha256 checksums
    │   ├── model.json         predictor header (save_predictor layout)
    │   ├── score_matrix.npy   dense; factored: factor_u.npy … n_users.npy
    │   └── graph_data.npy     optional known-link graph as CSR arrays,
    │       graph_indices.npy  used to exclude already-connected pairs
    │       graph_indptr.npy
    └── v0002/                 a sharded model (repro.sharding.artifacts):
        ├── manifest.json      plan_*.npy, graph_*.npy and one
        └── shard-000/ …       predictor directory per shard

Versions are immutable once published: ``publish`` writes into a hidden
staging directory and renames it into place, so readers never observe a
half-written version, and ``load`` re-hashes every file it reads against
the manifest before deserializing.  All failure modes surface as
:class:`~repro.exceptions.SerializationError` with the offending path in
the message.  A sharded load degrades instead of failing on a corrupt or
missing *shard*
(:attr:`~repro.sharding.artifacts.LoadedShardedArtifact.missing_shards`);
the manifest, the plan and the graph are always load-or-fail.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from scipy import sparse

from repro.exceptions import ArtifactCorruptError, SerializationError
from repro.models.base import MatrixPredictor
from repro.models.persistence import (
    MODEL_JSON,
    load_arrays,
    load_predictor,
    predictor_metadata,
    save_arrays,
    save_predictor,
)
from repro.reliability.faults import fault_point
from repro.serving.candidates import DenseCandidates, FactoredCandidates
from repro.sharding.artifacts import (
    SHARD_DIR,
    LoadedShardedArtifact,
    load_plan,
    save_sharded,
)

MANIFEST_SCHEMA_VERSION = 2
"""Bumped whenever the manifest.json layout changes incompatibly."""

_MANIFEST = "manifest.json"
_GRAPH_ARRAYS = ("data", "indices", "indptr")
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
    """One fully-validated dense or factored artifact.

    Attributes
    ----------
    version:
        The integer version number that was loaded.
    manifest:
        The parsed ``manifest.json`` of that version.
    predictor:
        The deserialized (refit-proof) predictor.
    adjacency:
        The known-link CSR adjacency published alongside the model, or
        ``None`` when the publisher provided no graph.
    """

    version: int
    manifest: Dict
    predictor: MatrixPredictor
    adjacency: Optional[sparse.csr_matrix] = field(default=None, repr=False)

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


class ArtifactStore:
    """Directory-per-version artifact store with integrity validation.

    One store holds dense, factored and sharded models alike: ``publish``
    picks the file set from the model and ``load`` dispatches on the
    manifest's ``kind``.

    Parameters
    ----------
    root:
        The store directory; created (with parents) on first use.
    layout:
        ``"npy"``, the one artifact layout; the keyword remains for
        callers that still pass it, and any other value raises
        :class:`~repro.exceptions.SerializationError`.

    Examples
    --------
    >>> import tempfile
    >>> import numpy as np
    >>> from repro.models.persistence import FrozenPredictor
    >>> store = ArtifactStore(tempfile.mkdtemp())
    >>> version = store.publish(FrozenPredictor(np.eye(3)))
    >>> store.resolve_latest() == version == 1
    True
    >>> store.load().predictor.score_matrix.shape
    (3, 3)
    """

    def __init__(self, root: str, layout: str = "npy"):
        if layout != "npy":
            raise SerializationError(
                f"layout must be 'npy' (the one artifact layout), got {layout!r}"
            )
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
    def publish(
        self,
        model,
        graph=None,
        meta: Optional[Dict] = None,
    ) -> int:
        """Write a fitted model as the next version; returns its number.

        Parameters
        ----------
        model:
            A fitted matrix predictor (dense or factored) or a fitted
            :class:`~repro.sharding.model.ShardedSlamPred` (anything with
            ``plan``, ``estimates`` and ``scales``).  An unfitted model
            raises ``NotFittedError`` before any disk state is touched.
        graph:
            Optional known-link structure — a
            :class:`~repro.networks.social.SocialGraph`, a square binary
            adjacency ndarray, or a scipy sparse matrix matching the
            model's user count.  Serving uses it to exclude
            already-connected pairs from top-k answers.  Stored as CSR
            arrays.
        meta:
            Extra JSON-compatible metadata recorded in the manifest
            (experiment name, training scale, …).
        """
        # Each branch is also the fitted check, before any disk state.
        if hasattr(model, "plan"):
            kind, n_users = "sharded", model.plan.n_users
        elif getattr(model, "factored", False):
            kind, n_users = "factored", int(model.factored_estimate.n_users)
        else:
            kind, n_users = "dense", int(model.score_matrix.shape[0])
        adjacency = _graph_adjacency(graph, n_users)
        version = (self.versions() or [0])[-1] + 1
        staging = os.path.join(
            self.root, f"{_STAGING_PREFIX}v{version:04d}-{os.getpid()}"
        )
        os.makedirs(staging)
        try:
            manifest = {
                "schema_version": MANIFEST_SCHEMA_VERSION,
                "version": version,
                "name": model.name,
                "model_class": type(model).__name__,
                "kind": kind,
                "n_users": n_users,
                "created_at": time.time(),  # wall-clock: a timestamp, not a duration
                "hyper_parameters": predictor_metadata(model),
                "meta": dict(meta or {}),
            }
            if kind == "sharded":
                paths, fields = save_sharded(model, staging)
                manifest.update(fields)
            else:
                paths = save_predictor(model, staging)
            if adjacency is not None:
                paths += save_arrays(
                    staging,
                    {key: getattr(adjacency, key) for key in _GRAPH_ARRAYS},
                    prefix="graph_",
                )
            manifest["files"] = {
                os.path.relpath(path, staging): {
                    "sha256": file_sha256(path),
                    "bytes": os.path.getsize(path),
                }
                for path in sorted(paths)
            }
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
        if schema != MANIFEST_SCHEMA_VERSION:
            raise SerializationError(
                f"manifest {manifest_path} has schema version {schema}; "
                f"this build reads version {MANIFEST_SCHEMA_VERSION}"
            )
        return manifest

    def _verify_file(self, version: int, manifest: Dict, filename: str) -> None:
        """Hash-check one file the manifest lists."""
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

    def verify(self, version: Optional[int] = None) -> Dict:
        """Re-hash every file of a version against its manifest.

        Returns the manifest on success; raises
        :class:`~repro.exceptions.ArtifactCorruptError` (a
        :class:`~repro.exceptions.SerializationError`) naming the first
        file whose checksum diverges or that is missing — a sharded
        version's shard files included.
        """
        version = self.resolve_latest() if version is None else int(version)
        manifest = self.manifest(version)
        for filename in manifest.get("files", {}):
            self._verify_file(version, manifest, filename)
        return manifest

    def load(self, version: Optional[int] = None):
        """Load and validate a version (default: latest).

        Returns a :class:`LoadedArtifact`, or a
        :class:`~repro.sharding.artifacts.LoadedShardedArtifact` when the
        manifest's ``kind`` is ``sharded``.  Every file is
        checksum-verified against the manifest before deserialization,
        and every predictor (each shard included) verifies its own
        content digest.  Arrays come back read-only and memory-mapped.

        A sharded load skips an invalid *shard* — recorded in
        ``missing_shards`` — while the manifest, the plan and the graph
        stay load-or-fail: serving can answer from a subset of shards,
        but not without knowing the partition.  A version with no
        loadable shard at all fails.  :meth:`verify` is the
        all-or-nothing check of every file.

        Three chaos sites cover this path: ``artifact.slow_read`` (a
        delay-only site modelling a stalled disk or network mount),
        ``artifact.read`` (raises
        :class:`~repro.exceptions.ArtifactCorruptError`, modelling a read
        that fails integrity validation) and ``sharding.shard_read``
        (once per shard read, failing only that shard).
        """
        version = self.resolve_latest() if version is None else int(version)
        fault_point("artifact.slow_read")
        fault_point("artifact.read")
        manifest = self.manifest(version)
        if manifest.get("kind") == "sharded":
            return self._load_sharded(version, manifest)
        self.verify(version)
        predictor = load_predictor(self.path(version))
        return LoadedArtifact(
            version=version,
            manifest=manifest,
            predictor=predictor,
            adjacency=self._load_graph(version, manifest, predictor.n_users),
        )

    def _load_sharded(self, version: int, manifest: Dict) -> LoadedShardedArtifact:
        """The lenient per-shard load behind :meth:`load`."""
        files = manifest.get("files", {})
        for filename in files:
            if not filename.startswith("shard-"):
                self._verify_file(version, manifest, filename)
        directory = self.path(version)
        plan, scales = load_plan(directory)
        adjacency = self._load_graph(version, manifest, plan.n_users)
        estimates: Dict[int, object] = {}
        missing: List[int] = []
        for s in range(plan.n_shards):
            shard = SHARD_DIR % s
            try:
                fault_point("sharding.shard_read")
                # The shard's header is required: its digest binds the
                # shard's arrays.
                listed = {f"{shard}/{MODEL_JSON}"}
                listed.update(f for f in files if f.startswith(shard + "/"))
                for filename in sorted(listed):
                    self._verify_file(version, manifest, filename)
                predictor = load_predictor(os.path.join(directory, shard))
            except SerializationError:
                missing.append(s)
                continue
            if (
                not getattr(predictor, "factored", False)
                or predictor.n_users != plan.members[s].size
            ):
                # Not a factored predictor, or one covering a different
                # member count than the plan lists for this shard.
                missing.append(s)
                continue
            estimates[s] = predictor.factored_estimate
        if not estimates:
            raise SerializationError(
                f"artifact v{version:04d} has no loadable shards"
            )
        return LoadedShardedArtifact(
            version=version,
            manifest=manifest,
            plan=plan,
            scales=scales,
            estimates=estimates,
            adjacency=adjacency,
            missing_shards=missing,
        )

    def _load_graph(self, version: int, manifest: Dict, n_users: int):
        """The version's verified known-link CSR graph, or ``None``."""
        if "graph_data.npy" not in manifest.get("files", {}):
            return None
        try:
            arrays = load_arrays(self.path(version), _GRAPH_ARRAYS, "graph_")
            return sparse.csr_matrix(
                tuple(arrays[key] for key in _GRAPH_ARRAYS),
                shape=(n_users, n_users),
            )
        except (ValueError, OSError) as exc:
            raise SerializationError(
                f"cannot load the graph of artifact v{version:04d}: {exc}"
            ) from exc


def _graph_adjacency(graph, n_users: int):
    """The canonical float CSR adjacency of a graph (``None`` stays ``None``).

    ``graph`` is a :class:`~repro.networks.social.SocialGraph`, an
    ndarray or a scipy sparse matrix.  Raises
    :class:`~repro.exceptions.SerializationError` unless it is
    ``n_users`` square.
    """
    if graph is None:
        return None
    adjacency = sparse.csr_matrix(
        getattr(graph, "adjacency", graph), dtype=float, copy=True
    )
    if adjacency.shape != (n_users, n_users):
        raise SerializationError(
            f"graph adjacency {adjacency.shape} does not match the "
            f"model's {(n_users, n_users)}"
        )
    # Sorted, duplicate-free indices: a read-only mapped copy is then
    # never re-sorted in place by scipy.
    adjacency.sum_duplicates()
    return adjacency
