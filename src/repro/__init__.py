"""SLAMPRED — link prediction across aligned networks (ICDE 2017 reproduction).

A complete implementation of "Link Prediction across Aligned Networks with
Sparse and Low Rank Matrix Estimation" (Zhang et al., ICDE 2017): the
SLAMPRED sparse/low-rank matrix-estimation model with proximal-operator
CCCP optimization, manifold-alignment domain adaptation, every baseline the
paper compares against, a synthetic aligned-heterogeneous-network substrate,
and a harness regenerating each table and figure of the evaluation.

Quickstart::

    from repro import generate_aligned_pair, SlamPred, TransferTask

    aligned = generate_aligned_pair(scale=120, random_state=7)
    task = TransferTask.from_aligned(aligned, random_state=7)
    model = SlamPred().fit(task)
    scores = model.score_matrix          # n x n link confidence matrix

See README.md and DESIGN.md for the architecture, EXPERIMENTS.md for the
paper-vs-measured comparison.
"""

from repro.exceptions import (
    ReproError,
    ConfigurationError,
    NetworkError,
    AlignmentError,
    FeatureError,
    OptimizationError,
    NotFittedError,
    EvaluationError,
    SerializationError,
)
from repro.networks import (
    HeterogeneousNetwork,
    SocialGraph,
    AnchorLinks,
    AlignedNetworks,
)
from repro.synth import (
    WorldConfig,
    NetworkConfig,
    AttributeConfig,
    AlignedNetworkGenerator,
    generate_aligned_pair,
)
from repro.features import FeatureTensor, IntimacyFeatureExtractor
from repro.adaptation import DomainAdapter
from repro.models import (
    LinkPredictor,
    TransferTask,
    SlamPred,
    SlamPredT,
    SlamPredH,
    ScanPredictor,
    PLPredictor,
    CommonNeighbors,
    JaccardCoefficient,
    PreferentialAttachment,
    AdamicAdar,
    ResourceAllocation,
    KatzIndex,
    LogisticRegression,
)
from repro.evaluation import (
    auc_score,
    precision_at_k,
    map_at_k,
    ndcg_at_k,
    k_fold_link_splits,
    cross_validate,
    run_anchor_sweep,
    roc_curve,
    precision_recall_curve,
)
from repro.alignment import AnchorPredictor, UserProfileBuilder
from repro.factored import FactoredEstimate
from repro.models import (
    save_predictor,
    load_predictor,
    FrozenPredictor,
    FrozenFactoredPredictor,
    LinkRecommender,
)
from repro.evaluation import grid_search
from repro.observability import (
    Tracer,
    NullTracer,
    RunReport,
    build_run_report,
    default_report_path,
)
from repro.serving import (
    ArtifactStore,
    LinkPredictionService,
    MicroBatcher,
    RankingCache,
)
from repro.sharding import (
    ShardedArtifactStore,
    ShardedSlamPred,
    ShardPlan,
    plan_shards,
)
from repro.applications import GraphDenoiser, SparseLowRankCovariance
from repro.temporal import (
    AutoregressiveLinkPredictor,
    SnapshotSequence,
    evolve_snapshots,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "ConfigurationError",
    "NetworkError",
    "AlignmentError",
    "FeatureError",
    "OptimizationError",
    "NotFittedError",
    "EvaluationError",
    "SerializationError",
    "HeterogeneousNetwork",
    "SocialGraph",
    "AnchorLinks",
    "AlignedNetworks",
    "WorldConfig",
    "NetworkConfig",
    "AttributeConfig",
    "AlignedNetworkGenerator",
    "generate_aligned_pair",
    "FeatureTensor",
    "IntimacyFeatureExtractor",
    "DomainAdapter",
    "LinkPredictor",
    "TransferTask",
    "SlamPred",
    "SlamPredT",
    "SlamPredH",
    "ScanPredictor",
    "PLPredictor",
    "CommonNeighbors",
    "JaccardCoefficient",
    "PreferentialAttachment",
    "AdamicAdar",
    "ResourceAllocation",
    "KatzIndex",
    "LogisticRegression",
    "auc_score",
    "precision_at_k",
    "map_at_k",
    "ndcg_at_k",
    "k_fold_link_splits",
    "cross_validate",
    "run_anchor_sweep",
    "roc_curve",
    "precision_recall_curve",
    "AnchorPredictor",
    "UserProfileBuilder",
    "save_predictor",
    "load_predictor",
    "FrozenPredictor",
    "FrozenFactoredPredictor",
    "FactoredEstimate",
    "LinkRecommender",
    "grid_search",
    "Tracer",
    "NullTracer",
    "RunReport",
    "build_run_report",
    "default_report_path",
    "ArtifactStore",
    "LinkPredictionService",
    "MicroBatcher",
    "RankingCache",
    "ShardPlan",
    "ShardedArtifactStore",
    "ShardedSlamPred",
    "plan_shards",
    "GraphDenoiser",
    "SparseLowRankCovariance",
    "AutoregressiveLinkPredictor",
    "SnapshotSequence",
    "evolve_snapshots",
    "__version__",
]
