"""Community-sharded solving and scatter-gather candidates.

The sharding subsystem splits one large aligned-network estimation
problem into per-community sub-problems that fit and serve
independently:

* :mod:`repro.sharding.partition` — assign users to shards from planted
  or detected communities, replicating high-degree boundary users as
  anchors across adjacent shards.
* :mod:`repro.sharding.model` — :class:`ShardedSlamPred` fits one
  factored SLAMPRED-H model per shard, in parallel across processes,
  with deterministic per-shard seeds and per-shard checkpoint
  directories.
* :mod:`repro.sharding.stitching` — calibrate per-shard score scales
  through the replicated anchors so cross-shard rankings agree.
* :mod:`repro.sharding.artifacts` — the sharded file set inside a
  version of the one artifact store (plan arrays plus one predictor
  directory per shard) and the loaded, possibly degraded, form.
* :mod:`repro.sharding.gather` — ``ScatterGather``, the candidate
  source a loaded sharded artifact builds: per-shard candidates merged
  with a deterministic tie-break, per-shard breakers and health.

A fitted sharded model is published to the one artifact store,
:class:`~repro.serving.artifacts.ArtifactStore`, whose load degrades
per shard, and served by the one serving service,
``LinkPredictionService(ArtifactStore(root))``, with the same cache,
reload, breaker, degraded tier and HTTP surface as any other.
"""

from repro.sharding.artifacts import LoadedShardedArtifact
from repro.sharding.model import ShardedSlamPred, fit_shard
from repro.sharding.partition import (
    ShardPlan,
    detect_communities,
    plan_shards,
)
from repro.sharding.stitching import (
    boundary_disagreement,
    fit_stitch_scales,
)

__all__ = [
    "LoadedShardedArtifact",
    "ShardPlan",
    "ShardedSlamPred",
    "boundary_disagreement",
    "detect_communities",
    "fit_shard",
    "fit_stitch_scales",
    "plan_shards",
]
