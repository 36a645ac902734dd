"""Fold-level evaluation harness.

``evaluate_model`` runs one model on one split; ``cross_validate`` runs a
model factory across all folds and aggregates mean ± std per metric —
the numbers each Table II cell reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.evaluation.metrics import auc_score, precision_at_k
from repro.evaluation.splits import LinkSplit
from repro.exceptions import EvaluationError
from repro.models.base import LinkPredictor, TransferTask
from repro.networks.aligned import AlignedNetworks
from repro.observability.tracer import NULL_TRACER, Tracer, is_tracing
from repro.utils.rng import RandomState, spawn_rngs

DEFAULT_PRECISION_K = 100


@dataclass
class FoldOutcome:
    """Metrics of one model on one fold."""

    model_name: str
    metrics: Dict[str, float]


@dataclass
class EvaluationResult:
    """Aggregated cross-validation outcome of one model.

    ``metrics`` maps metric name to the list of per-fold values; ``mean``
    and ``std`` aggregate them.
    """

    model_name: str
    metrics: Dict[str, List[float]] = field(default_factory=dict)

    def mean(self, metric: str) -> float:
        """Mean of a metric across folds."""
        return float(np.mean(self._values(metric)))

    def std(self, metric: str) -> float:
        """Population std of a metric across folds."""
        return float(np.std(self._values(metric)))

    def _values(self, metric: str) -> List[float]:
        try:
            return self.metrics[metric]
        except KeyError:
            raise EvaluationError(
                f"metric {metric!r} was not recorded; have {sorted(self.metrics)}"
            ) from None


def evaluate_model(
    model: LinkPredictor,
    task: TransferTask,
    split: LinkSplit,
    precision_k: int = DEFAULT_PRECISION_K,
    tracer: "Tracer" = None,
) -> FoldOutcome:
    """Fit ``model`` on the task and measure it on the split's test pairs.

    Under a live ``tracer`` the work runs in an ``evaluate`` trace (a
    child span inside an experiment's trace) with the fit and scoring
    phases timed as ``fit:<model>`` / ``score:<model>`` spans; a model
    that itself carries no tracer still contributes its wall-clock to the
    harness report.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    with tracer.trace("evaluate"):
        with tracer.span(f"fit:{model.name}"):
            model.fit(task)
        with tracer.span(f"score:{model.name}"):
            scores = model.score_pairs(split.test_pairs)
    tracer.count("harness.fits")
    labels = split.test_labels
    metrics = {
        "auc": auc_score(scores, labels),
        f"precision@{precision_k}": precision_at_k(scores, labels, precision_k),
    }
    return FoldOutcome(model_name=model.name, metrics=metrics)


def cross_validate(
    model_factory: Callable[[], LinkPredictor],
    aligned: AlignedNetworks,
    splits: Sequence[LinkSplit],
    random_state: RandomState = None,
    precision_k: int = DEFAULT_PRECISION_K,
    tracer: "Tracer" = None,
) -> EvaluationResult:
    """Run a model across all folds of an aligned bundle.

    A fresh model instance is built per fold (models keep fitted state); a
    per-fold random stream keeps every fold independently reproducible.
    A live ``tracer`` wraps each fold in a ``fold[i]`` span.
    """
    if not splits:
        raise EvaluationError("at least one split is required")
    rngs = spawn_rngs(random_state, len(splits))
    tracing = is_tracing(tracer)
    result = None
    for index, (split, rng) in enumerate(zip(splits, rngs)):
        model = model_factory()
        task = TransferTask(
            target=aligned.target,
            training_graph=split.training_graph,
            sources=list(aligned.sources),
            anchors=list(aligned.anchors),
            random_state=rng,
        )
        if tracing:
            with tracer.span(f"fold[{index}]"):
                outcome = evaluate_model(
                    model, task, split, precision_k, tracer=tracer
                )
        else:
            outcome = evaluate_model(model, task, split, precision_k)
        if result is None:
            result = EvaluationResult(model_name=outcome.model_name)
        for metric, value in outcome.metrics.items():
            result.metrics.setdefault(metric, []).append(value)
    return result
