"""Shared pair-feature construction for the classification baselines.

SCAN and PL (the ICDM'13 / KDD'14 baselines) describe link instances by
concatenating the intimacy feature vectors extracted from the target and the
source networks — *without* domain adaptation ("simply merging the extracted
feature vectors together", per the paper's related-work discussion).  A
target pair picks up a source's features only when both endpoints are
anchored; otherwise the source block is zero.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.features.intimacy import IntimacyFeatureExtractor
from repro.features.tensor import FeatureTensor
from repro.models.base import TransferTask
from repro.networks.aligned import AnchorLinks
from repro.utils.rng import RandomState, ensure_rng


def extract_task_tensors(
    task: TransferTask, extractor: IntimacyFeatureExtractor
) -> Tuple[FeatureTensor, List[FeatureTensor]]:
    """Extract the target tensor (training view) and all source tensors.

    Source structure is fully observed (only target links are held out), so
    source tensors use each source's complete social graph.
    """
    target_tensor = extractor.extract(task.target, task.training_graph)
    source_tensors = [extractor.extract(source) for source in task.sources]
    return target_tensor, source_tensors


def merged_pair_features(
    pairs: Sequence[Tuple[int, int]],
    target_tensor: FeatureTensor = None,
    source_tensors: Sequence[FeatureTensor] = (),
    anchors: Sequence[AnchorLinks] = (),
) -> np.ndarray:
    """Concatenated per-pair feature rows ``(len(pairs), d_total)``.

    Parameters
    ----------
    pairs:
        Target user index pairs.
    target_tensor:
        Target features, or ``None`` to omit the target block (SCAN-S/PL-S).
    source_tensors, anchors:
        One tensor and one anchor set per source; source features are mapped
        through the anchors and zero-filled for unanchored pairs.
    """
    blocks: List[np.ndarray] = []
    if target_tensor is not None:
        blocks.append(target_tensor.pair_vectors(pairs))
    for tensor, anchor in zip(source_tensors, anchors):
        block = np.zeros((len(pairs), tensor.n_features))
        for row, (i, j) in enumerate(pairs):
            a, b = anchor.map_forward(i), anchor.map_forward(j)
            if a is not None and b is not None and a != b:
                block[row] = tensor.pair_vector(a, b)
        blocks.append(block)
    if not blocks:
        raise ValueError("at least one feature block must be requested")
    return np.hstack(blocks)


def sample_training_pairs(
    task: TransferTask,
    negative_ratio: float,
    random_state: RandomState = None,
) -> Tuple[List[Tuple[int, int]], np.ndarray]:
    """Training pairs and labels: all training links plus sampled non-links.

    ``negative_ratio`` non-links are drawn per positive (capped by
    availability) — the class-imbalanced regime the paper says
    classification models struggle with.
    """
    from repro.evaluation.splits import sample_negative_pairs

    graph = task.training_graph
    rows, cols = graph.link_pairs()
    positives = list(zip(rows.tolist(), cols.tolist()))
    n_negative = min(
        graph.n_non_links, int(round(len(positives) * negative_ratio))
    )
    sampled_negatives = sample_negative_pairs(
        graph, n_negative, ensure_rng(random_state)
    )
    pairs = positives + sampled_negatives
    labels = np.concatenate(
        [np.ones(len(positives)), np.zeros(len(sampled_negatives))]
    )
    return pairs, labels
