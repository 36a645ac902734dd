"""The sharded file set inside a version of the one artifact store.

:class:`~repro.serving.artifacts.ArtifactStore` publishes a fitted
:class:`~repro.sharding.model.ShardedSlamPred` in the same layout as any
other model — a manifest plus uncompressed ``.npy`` arrays::

    v0001/
    ├── manifest.json     kind "sharded", shard count, sizes, stitch scales
    ├── plan_*.npy        shard assignment, anchor replication, scales
    ├── graph_*.npy       optional global known-link graph (CSR arrays)
    ├── shard-000/        shard 0's factored predictor (save_predictor)
    └── shard-001/ …

This module owns that file set (:func:`save_sharded`, :func:`load_plan`)
and the loaded form, :class:`LoadedShardedArtifact`.  The store's load is
**lenient per shard**: a corrupt or missing shard file is skipped and
reported in :attr:`LoadedShardedArtifact.missing_shards` instead of
failing the whole load, so the scatter-gather candidate source keeps
answering from the surviving shards.  Corruption of the manifest, the
plan or the graph is always fatal.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.exceptions import SerializationError
from repro.models.persistence import (
    FrozenFactoredPredictor,
    load_arrays,
    save_arrays,
    save_predictor,
)
from repro.sharding.partition import ShardPlan

PLAN_ARRAYS = ("shard_of", "anchor_concat", "anchor_offsets", "scales")
"""The ``plan_<name>.npy`` arrays of a sharded version."""

SHARD_DIR = "shard-%03d"
"""The predictor directory of one shard inside a sharded version."""


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
        from repro.sharding.gather import ScatterGather

        return ScatterGather(self, tracer, registry)


def save_sharded(model, directory: str) -> Tuple[List[str], Dict]:
    """Write a fitted sharded model's plan arrays and shard predictors.

    ``model`` is a fitted :class:`~repro.sharding.model.ShardedSlamPred`
    (or anything with ``name``, ``plan``, ``estimates`` and ``scales``).
    Returns the written paths and the manifest fields that describe the
    shards.
    """
    plan = model.plan
    scales = np.asarray(model.scales, dtype=float)
    paths = save_arrays(
        directory, {**plan.to_arrays(), "scales": scales}, prefix="plan_"
    )
    for s, estimate in enumerate(model.estimates):
        predictor = FrozenFactoredPredictor(
            estimate,
            {
                "name": model.name,
                "shard": s,
                "n_members": int(plan.members[s].size),
                "scale": float(scales[s]),
            },
        )
        paths += save_predictor(predictor, os.path.join(directory, SHARD_DIR % s))
    fields = {
        "n_shards": plan.n_shards,
        "shard_sizes": plan.shard_sizes(),
        "scales": [float(v) for v in scales],
    }
    return paths, fields


def load_plan(directory: str) -> Tuple[ShardPlan, np.ndarray]:
    """The shard plan and stitch scales of a (verified) sharded version.

    Raises :class:`~repro.exceptions.SerializationError` when the plan
    arrays are unreadable or inconsistent.
    """
    try:
        arrays = load_arrays(directory, PLAN_ARRAYS, prefix="plan_")
        plan = ShardPlan.from_arrays(arrays)
    except (KeyError, ValueError, OSError) as exc:
        raise SerializationError(
            f"cannot load the shard plan in {directory}: {exc}"
        ) from exc
    scales = np.asarray(arrays["scales"], dtype=float)
    if scales.size != plan.n_shards:
        raise SerializationError(
            f"plan in {directory} carries {scales.size} scales for "
            f"{plan.n_shards} shards"
        )
    return plan, scales
