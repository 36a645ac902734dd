"""The end-to-end intimacy feature pipeline.

:class:`IntimacyFeatureExtractor` turns one heterogeneous network (plus a
*training* view of its social structure) into the paper's feature tensor
``X ∈ R^{d×n×n}``.  Structural features are always computed from the
training view so held-out test links never leak into the features.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.exceptions import FeatureError
from repro.features.metapath import (
    METAPATHS,
    metapath_counts_from_profiles,
    profile_matrix,
)
from repro.features.spatial import cosine_similarity_matrix
from repro.features.structural import (
    adamic_adar_matrix,
    jaccard_from_square,
    katz_from_square,
    preferential_attachment_matrix,
    resource_allocation_matrix,
)
from repro.features.tensor import FeatureTensor
from repro.features.textual import word_similarity_from_counts
from repro.utils.matrices import zero_diagonal
from repro.networks.heterogeneous import HeterogeneousNetwork
from repro.networks.social import SocialGraph

STRUCTURAL_FEATURES = (
    "common_neighbors",
    "jaccard",
    "adamic_adar",
    "resource_allocation",
    "preferential_attachment",
    "katz",
)
ATTRIBUTE_FEATURES = (
    "checkin_similarity",
    "temporal_similarity",
    "word_similarity",
)
METAPATH_FEATURES = tuple(f"metapath_{mp}" for mp in METAPATHS)

DEFAULT_FEATURES = STRUCTURAL_FEATURES + ATTRIBUTE_FEATURES + METAPATH_FEATURES
"""All features the extractor can produce, in canonical order."""

# The intermediate each feature shares with others: ``A @ A`` for the
# path-count features, and the profile matrix of a meta path for the cosine
# slice and the meta-path slice built from the same profiles.
_SHARED_INTERMEDIATE = {
    "common_neighbors": "square",
    "jaccard": "square",
    "katz": "square",
    "checkin_similarity": "UPLPU",
    "temporal_similarity": "UPTPU",
    "word_similarity": "UPWPU",
    **{f"metapath_{mp}": mp for mp in METAPATHS},
}


class IntimacyFeatureExtractor:
    """Extract the intimacy feature tensor of one network.

    Parameters
    ----------
    features:
        Which features to extract, a subset of :data:`DEFAULT_FEATURES`
        (defaults to all of them).
    katz_beta, katz_max_length:
        Parameters of the truncated Katz structural feature.
    normalize:
        Whether to max-normalize each slice (recommended; puts counts and
        cosines on a common scale before domain adaptation).

    Examples
    --------
    >>> from repro.synth import generate_aligned_pair
    >>> aligned = generate_aligned_pair(scale=60, random_state=0)
    >>> extractor = IntimacyFeatureExtractor()
    >>> tensor = extractor.extract(aligned.target)
    >>> tensor.n_users == aligned.target.n_users
    True
    """

    def __init__(
        self,
        features: Sequence[str] = None,
        katz_beta: float = 0.05,
        katz_max_length: int = 3,
        normalize: bool = True,
    ):
        if features is None:
            features = DEFAULT_FEATURES
        unknown = [f for f in features if f not in DEFAULT_FEATURES]
        if unknown:
            raise FeatureError(
                f"unknown features {unknown}; supported: {list(DEFAULT_FEATURES)}"
            )
        if len(features) == 0:
            raise FeatureError("at least one feature must be requested")
        self.features = tuple(features)
        self.katz_beta = katz_beta
        self.katz_max_length = katz_max_length
        self.normalize = normalize

    @property
    def n_features(self) -> int:
        """Number of slices the extractor produces (the paper's d)."""
        return len(self.features)

    def extract(
        self,
        network: HeterogeneousNetwork,
        training_graph: Optional[SocialGraph] = None,
    ) -> FeatureTensor:
        """Build the feature tensor.

        Parameters
        ----------
        network:
            Heterogeneous network supplying attribute information.
        training_graph:
            Social structure to compute structural features from.  Pass the
            *training* view during evaluation so test links do not leak;
            defaults to the network's full structure.
        """
        if training_graph is None:
            training_graph = SocialGraph.from_network(network)
        if training_graph.n_users != network.n_users:
            raise FeatureError(
                f"training graph has {training_graph.n_users} users but the "
                f"network has {network.n_users}"
            )
        adjacency = np.asarray(training_graph.adjacency, dtype=float)
        n = network.n_users
        # One preallocated (d, n, n) array, filled and normalized in place:
        # no per-slice list, stacked copy or normalized copy.
        values = np.empty((len(self.features), n, n))
        shared = {}
        keys = [_SHARED_INTERMEDIATE.get(name) for name in self.features]
        for k, name in enumerate(self.features):
            values[k] = self._compute(name, network, adjacency, shared)
            if keys[k] not in keys[k + 1:]:
                shared.pop(keys[k], None)  # no later slice reads it
            if self.normalize:
                peak = max(values[k].max(), -values[k].min())
                if peak > 0:
                    values[k] /= peak
        return FeatureTensor(values, list(self.features))

    def extract_many(
        self,
        networks: Sequence[HeterogeneousNetwork],
        training_graphs: Optional[Sequence[Optional[SocialGraph]]] = None,
        max_workers: Optional[int] = None,
    ):
        """:meth:`extract` for several networks, fanned out over threads.

        Each network's extraction is independent and spends its time in
        numpy kernels that release the GIL, so the K aligned sources of a
        transfer task extract concurrently.  Returns ``(tensors,
        seconds)`` where both lists follow the input order and
        ``seconds[i]`` is network ``i``'s own extraction wall time.
        """
        from repro.perf.parallel import parallel_map

        networks = list(networks)
        if training_graphs is None:
            training_graphs = [None] * len(networks)
        elif len(training_graphs) != len(networks):
            raise FeatureError(
                f"{len(training_graphs)} training graphs for "
                f"{len(networks)} networks"
            )

        def _one(job):
            network, graph = job
            return self.extract(network, graph)

        return parallel_map(
            _one, list(zip(networks, training_graphs)), max_workers=max_workers
        )

    # ------------------------------------------------------------------
    def _compute(
        self,
        name: str,
        network: HeterogeneousNetwork,
        adjacency: np.ndarray,
        shared: dict,
    ) -> np.ndarray:
        """Slice ``name``; ``shared`` caches intermediates across slices."""

        def intermediate():
            key = _SHARED_INTERMEDIATE[name]
            if key not in shared:
                if key == "square":
                    shared[key] = adjacency @ adjacency
                else:
                    shared[key] = profile_matrix(network, key)
            return shared[key]

        if name == "common_neighbors":
            return zero_diagonal(intermediate())
        if name == "jaccard":
            return jaccard_from_square(adjacency, intermediate())
        if name == "adamic_adar":
            return adamic_adar_matrix(adjacency)
        if name == "resource_allocation":
            return resource_allocation_matrix(adjacency)
        if name == "preferential_attachment":
            return preferential_attachment_matrix(adjacency)
        if name == "katz":
            square = intermediate() if self.katz_max_length > 1 else None
            return katz_from_square(
                adjacency, square, self.katz_beta, self.katz_max_length
            )
        if name in ("checkin_similarity", "temporal_similarity"):
            return cosine_similarity_matrix(intermediate())
        if name == "word_similarity":
            return word_similarity_from_counts(intermediate())
        if name.startswith("metapath_"):
            return metapath_counts_from_profiles(intermediate())
        raise FeatureError(f"unknown feature {name!r}")
