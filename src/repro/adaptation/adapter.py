"""High-level domain adapter: fit projections, project tensors, re-index.

:class:`DomainAdapter` packages the Section III-C pipeline:

1. sample link instances from each network (anchor-images of the target's
   sampled pairs are injected into each source sample so ``W_A`` has support);
2. solve the generalized eigenproblem for the per-network maps ``F^k``;
3. project each network's feature tensor into the shared latent space;
4. re-index each projected *source* tensor onto the target's user pairs via
   the anchor links (the paper's "users in X̂^k are organized in the same
   order as X^t") — unanchored pairs transfer nothing.

Because the latent space is built to place link instances close together and
far from non-link instances, the natural *intimacy* readout of an embedded
pair is its nearest-centroid margin — distance to the pooled non-link
centroid minus distance to the pooled link centroid, computed across all
networks' fitted instances (they share the space).
:meth:`DomainAdapter.affinity_matrix` exposes that readout min-max
normalized to [0, 1]; SLAMPRED consumes it as the adapted intimacy tensor.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.adaptation.indicators import LinkInstanceSample, sample_link_instances
from repro.adaptation.projection import ProjectionResult, solve_projections
from repro.exceptions import AlignmentError, NotFittedError
from repro.features.tensor import FeatureTensor
from repro.networks.aligned import AnchorLinks
from repro.networks.social import SocialGraph
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_integer, check_non_negative


def align_source_to_target(
    projected_source: FeatureTensor,
    anchors: AnchorLinks,
    n_target_users: int,
) -> FeatureTensor:
    """Re-index a projected source tensor onto the target's user pairs.

    For a target pair ``(i, j)`` whose endpoints are both anchored to source
    users ``(a, b)``, the output carries the source's latent features of
    ``(a, b)``; other pairs get zeros (no information transfers for them).
    """
    c = projected_source.n_features
    out = np.zeros((c, n_target_users, n_target_users))
    target, source = _anchored_users(
        anchors, n_target_users, projected_source.n_users
    )
    # Anchors are one-to-one, so the scatter writes each target pair once.
    for out_slice, source_slice in zip(out, projected_source.values):
        out_slice[np.ix_(target, target)] = source_slice[np.ix_(source, source)]
        out_slice[target, target] = 0.0
    return FeatureTensor(out, projected_source.feature_names)


def anchored_target_mask(
    anchors: AnchorLinks, n_target_users: int, n_source_users: int
) -> np.ndarray:
    """0/1 vector over target users: 1 where :func:`align_source_to_target` maps.

    The pairs a source covers on the target are the off-diagonal entries
    of ``outer(mask, mask)`` — what aligning an all-ones source slice
    yields, without the ``n_source × n_source`` slice.
    """
    mask = np.zeros(n_target_users)
    mask[_anchored_users(anchors, n_target_users, n_source_users)[0]] = 1.0
    return mask


def _anchored_users(
    anchors: AnchorLinks, n_target_users: int, n_source_users: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(target, source)`` id arrays of the anchors inside both networks."""
    anchored = np.array(
        [
            (t, s)
            for t, s in anchors.pairs
            if 0 <= t < n_target_users and 0 <= s < n_source_users
        ],
        dtype=int,
    ).reshape(-1, 2)
    return anchored[:, 0], anchored[:, 1]


class DomainAdapter:
    """Fit and apply the shared-latent-space feature projection.

    Parameters
    ----------
    latent_dimension:
        The shared dimension ``c``.
    mu:
        Weight of the anchor-alignment cost term (paper: 1.0).
    instances_per_network:
        Link-instance sample size per network used to fit the projections
        and the pooled latent classifier.  ``None`` (default) scales with
        the target: ``clip(4 · n_target_users, 150, 1200)``.
    random_state:
        Seed for the instance sampling.

    Examples
    --------
    >>> from repro.synth import generate_aligned_pair
    >>> from repro.features import IntimacyFeatureExtractor
    >>> from repro.networks import SocialGraph
    >>> aligned = generate_aligned_pair(scale=60, random_state=1)
    >>> extractor = IntimacyFeatureExtractor()
    >>> tensors = [extractor.extract(n) for n in aligned.networks]
    >>> graphs = [SocialGraph.from_network(n) for n in aligned.networks]
    >>> adapter = DomainAdapter(latent_dimension=4, random_state=1)
    >>> adapted = adapter.fit_transform(tensors, graphs, aligned.anchors)
    >>> [t.n_features for t in adapted]
    [4, 4]
    """

    def __init__(
        self,
        latent_dimension: int = 5,
        mu: float = 1.0,
        instances_per_network: Optional[int] = None,
        random_state: RandomState = None,
    ):
        self.latent_dimension = check_integer(
            latent_dimension, "latent_dimension", minimum=1
        )
        self.mu = check_non_negative(mu, "mu")
        if instances_per_network is None:
            self.instances_per_network = None
        else:
            self.instances_per_network = check_integer(
                instances_per_network, "instances_per_network", minimum=2
            )
        self.random_state = random_state
        self._result: Optional[ProjectionResult] = None
        self._samples: Optional[List[LinkInstanceSample]] = None

    # ------------------------------------------------------------------
    @property
    def result(self) -> ProjectionResult:
        """The fitted projections; raises if :meth:`fit` has not run."""
        if self._result is None:
            raise NotFittedError("DomainAdapter has not been fitted")
        return self._result

    def fit(
        self,
        tensors: Sequence[FeatureTensor],
        graphs: Sequence[SocialGraph],
        anchors_to_target: Sequence[AnchorLinks],
    ) -> "DomainAdapter":
        """Fit the per-network projection matrices.

        Parameters
        ----------
        tensors:
            Feature tensors, target first then sources.
        graphs:
            Training social graphs in the same order (labels come from
            these, so pass training views during evaluation).
        anchors_to_target:
            Anchor links from the target to each source.
        """
        if len(tensors) != len(graphs):
            raise AlignmentError(
                f"{len(tensors)} tensors but {len(graphs)} graphs"
            )
        if len(tensors) != len(anchors_to_target) + 1:
            raise AlignmentError(
                f"{len(tensors)} networks need {len(tensors) - 1} anchor "
                f"sets, got {len(anchors_to_target)}"
            )
        rng = ensure_rng(self.random_state)
        n_instances = self.instances_per_network
        if n_instances is None:
            n_instances = int(np.clip(4 * graphs[0].n_users, 150, 1200))
        target_sample = sample_link_instances(
            graphs[0], tensors[0], n_instances, rng
        )
        samples: List[LinkInstanceSample] = [target_sample]
        for tensor, graph, anchors in zip(
            tensors[1:], graphs[1:], anchors_to_target
        ):
            forced = _anchor_images(target_sample, anchors, graph.n_users)
            samples.append(
                sample_link_instances(
                    graph,
                    tensor,
                    n_instances,
                    rng,
                    forced_pairs=forced,
                )
            )
        self._result = solve_projections(
            samples,
            anchors_to_target,
            latent_dimension=self.latent_dimension,
            mu=self.mu,
        )
        self._samples = samples
        return self

    def transform(self, tensor: FeatureTensor, network_index: int) -> FeatureTensor:
        """Project one network's tensor with its fitted ``F^k``."""
        projections = self.result.projections
        if not 0 <= network_index < len(projections):
            raise AlignmentError(
                f"network_index {network_index} out of range "
                f"(fitted {len(projections)} networks)"
            )
        return tensor.project(projections[network_index])

    def pooled_centroids(self) -> Tuple[np.ndarray, np.ndarray]:
        """Latent centroids of link and non-link instances across networks.

        Returns ``(link_centroid, non_link_centroid)``, each of length ``c``.
        Instances from every fitted network contribute — they live in the
        shared space, which is the point of the alignment.
        """
        result = self.result
        if self._samples is None:
            raise NotFittedError("DomainAdapter has not been fitted")
        latent_columns = []
        labels = []
        for projection, sample in zip(result.projections, self._samples):
            latent_columns.append(projection.T @ sample.features)  # (c, m)
            labels.append(sample.labels)
        latent = np.hstack(latent_columns)
        labels = np.concatenate(labels)
        if not np.any(labels == 1.0) or not np.any(labels == 0.0):
            raise AlignmentError(
                "fitted instances must include both links and non-links"
            )
        link_centroid = latent[:, labels == 1.0].mean(axis=1)
        non_link_centroid = latent[:, labels == 0.0].mean(axis=1)
        return link_centroid, non_link_centroid

    def pooled_latent_classifier(self):
        """Logistic model separating links from non-links in latent space.

        Trained on the *pooled* projected instances of every fitted network.
        This is the payoff of the alignment: source-network link labels
        supervise a classifier that is directly applicable to target pairs
        because all networks share the latent space.
        """
        from repro.models.classifiers import LogisticRegression

        result = self.result
        if self._samples is None:
            raise NotFittedError("DomainAdapter has not been fitted")
        latent_rows = []
        labels = []
        for projection, sample in zip(result.projections, self._samples):
            latent_rows.append((projection.T @ sample.features).T)  # (m, c)
            labels.append(sample.labels)
        features = np.vstack(latent_rows)
        labels = np.concatenate(labels)
        model = LogisticRegression(l2=1.0)
        model.fit(features, labels)
        return model

    def affinity_matrix(
        self, tensor: FeatureTensor, network_index: int
    ) -> np.ndarray:
        """Per-pair link affinity of one network in [0, 1].

        Projects the tensor with the network's fitted ``F^k`` and scores
        every pair with the pooled latent classifier
        (:meth:`pooled_latent_classifier`).  Scores are quantile-transformed
        to [0, 1] (uniform spread, outlier-proof) with the diagonal zeroed.
        """
        from scipy.stats import rankdata

        latent = self.transform(tensor, network_index)
        logits = self.pooled_latent_classifier().pair_logits(latent.values)
        del latent  # the c slices are dead before the ranking's n² buffers
        n = logits.shape[0]
        affinity = rankdata(logits.ravel()).reshape(n, n)
        affinity = (affinity - 1.0) / max(1, affinity.size - 1)
        np.fill_diagonal(affinity, 0.0)
        return affinity

    def fit_transform(
        self,
        tensors: Sequence[FeatureTensor],
        graphs: Sequence[SocialGraph],
        anchors_to_target: Sequence[AnchorLinks],
    ) -> List[FeatureTensor]:
        """Fit, project every tensor, and re-index sources to target pairs.

        Returns adapted tensors ``[X̂^t, X̂^1, …, X̂^K]``, every one shaped
        ``(c, n_t, n_t)`` over the *target's* users.
        """
        self.fit(tensors, graphs, anchors_to_target)
        n_target = tensors[0].n_users
        adapted = [self.transform(tensors[0], 0)]
        for k, (tensor, anchors) in enumerate(
            zip(tensors[1:], anchors_to_target), start=1
        ):
            projected = self.transform(tensor, k)
            adapted.append(
                align_source_to_target(projected, anchors, n_target)
            )
        return adapted


def _anchor_images(
    target_sample: LinkInstanceSample,
    anchors: AnchorLinks,
    n_source_users: int,
) -> List:
    """Source pairs that are anchor-images of the target's sampled pairs."""
    forced = []
    for i, j in target_sample.pairs:
        a, b = anchors.map_forward(i), anchors.map_forward(j)
        if a is None or b is None:
            continue
        if 0 <= a < n_source_users and 0 <= b < n_source_users and a != b:
            forced.append((min(a, b), max(a, b)))
    return forced
