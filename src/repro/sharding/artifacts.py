"""Versioned on-disk store for sharded link-prediction artifacts.

A :class:`ShardedArtifactStore` extends the directory-per-version layout
of :class:`~repro.serving.artifacts.ArtifactStore` to one model made of
many shard files::

    store/
    ├── v0001/
    │   ├── manifest.json     schema version, shard plan summary, per-file
    │   │                     sha256 checksums, stitch scales
    │   ├── plan.npz          shard assignment + anchor replication arrays
    │   ├── graph.npz         optional: global known-link adjacency (CSR)
    │   ├── shard-000.npz     shard 0's factored predictor (save_predictor)
    │   ├── shard-001.npz
    │   └── …
    └── v0002/ …

Publishes stage into a hidden directory and rename into place, so readers
never observe a half-written version (the shared
:class:`~repro.serving.artifacts.VersionedStore` mechanics).  Loading
re-hashes every file against the manifest; the crucial difference from
the unsharded store is **partial degradation**: a corrupt or missing
*shard* file is skipped and reported in
:attr:`LoadedShardedArtifact.missing_shards` instead of failing the whole
load — the scatter-gather candidate source keeps answering from the
surviving shards.  Corruption of the manifest, the plan or the graph is
always fatal (there is no meaningful artifact without them), and
:meth:`ShardedArtifactStore.verify` still fails on any invalid file.
"""

from __future__ import annotations

import os
import time
import zipfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
from scipy import sparse

from repro.exceptions import SerializationError
from repro.models.persistence import (
    FrozenFactoredPredictor,
    load_predictor,
    save_predictor,
)
from repro.reliability.faults import fault_point
from repro.serving.artifacts import (
    GRAPH_FILE,
    VersionedStore,
    graph_adjacency,
    load_graph,
)
from repro.sharding.gather import ScatterGather
from repro.sharding.partition import ShardPlan

SHARDED_MANIFEST_SCHEMA_VERSION = 1
"""Bumped whenever the sharded manifest layout changes incompatibly."""

_PLAN_FILE = "plan.npz"
_SHARD_FILE_FORMAT = "shard-%03d.npz"


@dataclass
class LoadedShardedArtifact:
    """One validated (possibly degraded) sharded artifact.

    Attributes
    ----------
    version:
        The loaded version number.
    manifest:
        The parsed ``manifest.json``.
    plan:
        The deserialized :class:`~repro.sharding.partition.ShardPlan`.
    scales:
        Per-shard stitching multipliers λ.
    estimates:
        Shard id → the shard's
        :class:`~repro.factored.estimate.FactoredEstimate`; shards that
        failed validation are absent.
    adjacency:
        The global known-link CSR adjacency, or ``None``.
    missing_shards:
        Shard ids dropped by a degraded load (empty on a clean one).
    """

    version: int
    manifest: Dict
    plan: ShardPlan
    scales: np.ndarray
    estimates: Dict[int, "FactoredEstimate"] = field(repr=False, default_factory=dict)
    adjacency: Optional[sparse.csr_matrix] = field(default=None, repr=False)
    missing_shards: List[int] = field(default_factory=list)

    @property
    def n_users(self) -> int:
        """Users covered by the plan (independent of shard health)."""
        return self.plan.n_users

    @property
    def n_shards(self) -> int:
        """Shards the artifact was published with."""
        return self.plan.n_shards

    @property
    def degraded(self) -> bool:
        """Whether any shard was dropped during loading."""
        return bool(self.missing_shards)

    def candidates(self, tracer, registry):
        """A scatter-gather candidate source over this artifact's shards."""
        return ScatterGather(self, tracer, registry)


class ShardedArtifactStore(VersionedStore):
    """Directory-per-version store for sharded factored models.

    Versions, staging, manifests and checksums are the shared
    :class:`~repro.serving.artifacts.VersionedStore` mechanics; this
    class adds the plan/shard file set and the lenient per-shard load.

    Parameters
    ----------
    root:
        The store directory; created (with parents) on first use.
    """

    SCHEMA_VERSION = SHARDED_MANIFEST_SCHEMA_VERSION

    # -- publish --------------------------------------------------------
    def publish(self, model, graph=None, meta: Optional[Dict] = None) -> int:
        """Write a fitted :class:`ShardedSlamPred` as the next version.

        Parameters
        ----------
        model:
            A fitted :class:`~repro.sharding.model.ShardedSlamPred`
            (raises ``NotFittedError`` before disk state is touched
            otherwise).
        graph:
            Optional global known-link structure (SocialGraph, ndarray
            or scipy sparse) matching the plan's user count; serving
            excludes these pairs from top-k answers across shard
            boundaries.  Stored sparse.
        meta:
            Extra JSON-compatible metadata for the manifest.
        """
        plan = model.plan  # fitted check before touching disk
        estimates = model.estimates
        scales = np.asarray(model.scales, dtype=float)
        adjacency = graph_adjacency(graph, plan.n_users, "plan", dense=False)

        def write(staging: str) -> Dict:
            files: Dict[str, Dict] = {}
            plan_path = os.path.join(staging, _PLAN_FILE)
            np.savez_compressed(
                plan_path, scales=scales, **plan.to_arrays()
            )
            files[_PLAN_FILE] = self._file_entry(plan_path)
            for s, estimate in enumerate(estimates):
                shard_name = _SHARD_FILE_FORMAT % s
                shard_path = os.path.join(staging, shard_name)
                predictor = FrozenFactoredPredictor(
                    estimate,
                    {
                        "name": model.name,
                        "shard": s,
                        "n_members": int(plan.members[s].size),
                        "scale": float(scales[s]),
                    },
                )
                save_predictor(predictor, shard_path)
                files[shard_name] = self._file_entry(shard_path)
            return {
                "name": model.name,
                "kind": "sharded",
                "n_users": plan.n_users,
                "n_shards": plan.n_shards,
                "shard_sizes": plan.shard_sizes(),
                "scales": [float(v) for v in scales],
                "created_at": time.time(),  # wall-clock: a timestamp, not a duration
                "meta": dict(meta or {}),
                "files": files,
            }

        return self._publish_staged(write, adjacency)

    # -- read -----------------------------------------------------------
    def load(self, version: Optional[int] = None) -> LoadedShardedArtifact:
        """Load a version (default latest), dropping invalid shards.

        Invalid *shard* archives are skipped — recorded in
        :attr:`LoadedShardedArtifact.missing_shards` — while the
        manifest, the plan and the graph stay load-or-fail: serving can
        answer from a subset of shards, but not without knowing the
        partition.  A version with no loadable shard at all fails.
        :meth:`verify` is the all-or-nothing check of every file.  The
        ``sharding.shard_read`` chaos site fires once per shard read,
        modelling exactly the single-corrupt-shard degradation the
        reliability tests pin.
        """
        version = self.resolve_latest() if version is None else int(version)
        manifest = self.manifest(version)
        plan_path = self._verify_file(version, manifest, _PLAN_FILE)
        try:
            with np.load(plan_path) as data:
                plan = ShardPlan.from_arrays(
                    {key: np.asarray(data[key]) for key in data.files}
                )
                scales = np.asarray(data["scales"], dtype=float)
        except (KeyError, ValueError, OSError, zipfile.BadZipFile) as exc:
            raise SerializationError(
                f"cannot load shard plan {plan_path}: {exc}"
            ) from exc
        if scales.size != plan.n_shards:
            raise SerializationError(
                f"plan {plan_path} carries {scales.size} scales for "
                f"{plan.n_shards} shards"
            )
        adjacency = None
        if GRAPH_FILE in manifest.get("files", {}):
            graph_path = self._verify_file(version, manifest, GRAPH_FILE)
            adjacency = graph_adjacency(
                load_graph(graph_path), plan.n_users, "plan", dense=False
            )
        estimates: Dict[int, object] = {}
        missing: List[int] = []
        for s in range(plan.n_shards):
            try:
                fault_point("sharding.shard_read")
                shard_path = self._verify_file(
                    version, manifest, _SHARD_FILE_FORMAT % s
                )
                predictor = load_predictor(shard_path)
            except SerializationError:
                missing.append(s)
                continue
            if (
                not getattr(predictor, "factored", False)
                or predictor.factored_estimate.n_users
                != plan.members[s].size
            ):
                # Not a factored archive, or one covering a different
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
