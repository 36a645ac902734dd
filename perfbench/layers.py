"""Which public calls the traced runs time, and under which layer name.

One table serves every workload and the traced server host, so a layer
has the same name wherever it runs.  A layer a workload never calls
reports zero self time there, which is itself a prediction the
benchmark checks (an SVT change cannot move ``serve-hot``).
"""

from __future__ import annotations

import importlib
import time

# (module, class or None for a module-level function, attribute, span name)
LAYERS = [
    ("repro.synth.generator", None, "generate_aligned_pair", "synth.generate"),
    ("repro.evaluation.splits", None, "k_fold_link_splits", "synth.generate"),
    ("repro.features.intimacy", "IntimacyFeatureExtractor", "extract", "features.extract"),
    ("repro.features.intimacy", "IntimacyFeatureExtractor", "extract_many", "features.extract"),
    ("repro.adaptation.adapter", "DomainAdapter", "fit", "adaptation.fit"),
    ("repro.adaptation.adapter", "DomainAdapter", "transform", "adaptation.transform"),
    ("repro.optim.losses", "SquaredFrobeniusLoss", "gradient", "optim.gradient"),
    ("repro.optim.losses", "LinearizedIntimacyTerm", "gradient", "optim.gradient"),
    ("repro.optim.losses", "FusedSmoothObjective", "gradient", "optim.gradient"),
    ("repro.optim.losses", "FactoredSmoothObjective", "gradient", "factored.gradient"),
    ("repro.optim.losses", "FactoredSmoothObjective", "gradient_step", "factored.gradient"),
    ("repro.optim.proximal", "TraceNormProx", "apply", "perf.svt"),
    ("repro.optim.proximal", "TraceNormProx", "apply_factored", "factored.svt"),
    ("repro.optim.proximal", "L1Prox", "apply", "optim.entry_prox"),
    ("repro.optim.proximal", "L1Prox", "apply_inplace", "optim.entry_prox"),
    ("repro.optim.proximal", "L1Prox", "apply_values", "optim.entry_prox"),
    ("repro.optim.proximal", "BoxProjection", "apply", "optim.entry_prox"),
    ("repro.optim.proximal", "BoxProjection", "apply_inplace", "optim.entry_prox"),
    ("repro.optim.proximal", "BoxProjection", "apply_values", "optim.entry_prox"),
    ("repro.serving.artifacts", "ArtifactStore", "publish", "persistence.publish"),
    ("repro.serving.artifacts", "ArtifactStore", "load", "persistence.load"),
    ("repro.serving.http", "EndpointRouter", "dispatch", "serving.router"),
    ("repro.serving.batcher", "MicroBatcher", "submit", "serving.batcher"),
    ("repro.serving.service", "LinkPredictionService", "top_k", "serving.top_k"),
    ("repro.serving.service", "LinkPredictionService", "batch_top_k_mixed", "serving.top_k"),
    ("repro.serving.service", "LinkPredictionService", "score", "serving.score"),
    ("repro.serving.service", "LinkPredictionService", "reload", "serving.reload"),
    ("repro.serving.cache", "RankingCache", "get", "serving.cache"),
    ("repro.factored.estimate", "FactoredEstimate", "rows", "factored.rows"),
    ("repro.streaming.pipeline", "StreamingPipeline", "submit", "streaming.submit"),
    ("repro.streaming.pipeline", "StreamingPipeline", "apply_pending", "streaming.apply"),
    ("repro.streaming.pipeline", "StreamingPipeline", "snapshot", "streaming.snapshot"),
    ("repro.streaming.wal", "WriteAheadLog", "append", "streaming.wal_append"),
    ("repro.streaming.refit", "WarmRefitter", "refit", "streaming.refit"),
    ("repro.streaming.deltas", "StreamState", "to_csr", "streaming.state"),
    ("repro.streaming.deltas", "StreamState", "digest", "streaming.state"),
]


def _user_and_k(args, kwargs):
    """``(user, k)`` of a ``top_k(user, k=10)``-shaped call."""
    user = args[1] if len(args) > 1 else kwargs.get("user")
    k = args[2] if len(args) > 2 else kwargs.get("k", 10)
    return int(user), int(k)


def _annotate_top_k(args, kwargs, result):
    """Remember which (user, k) pairs a scoring call answered."""
    user, k = _user_and_k(args, kwargs)
    return {"users": [user], "ks": [k]}


def _annotate_batch(args, kwargs, result):
    users = args[1] if len(args) > 1 else kwargs["users"]
    ks = args[2] if len(args) > 2 else kwargs["ks"]
    return {"users": [int(u) for u in users], "ks": [int(k) for k in ks]}


def _annotate_submit(args, kwargs, result):
    user, k = _user_and_k(args, kwargs)
    return {"user": user, "k": k}


def _annotate_cache(args, kwargs, result):
    return {"hit": result is not None}


def _dispatch_request_id(args, kwargs):
    """``EndpointRouter.dispatch(method, path, query, body, request_id, deadline)``."""
    return args[5] if len(args) > 5 else kwargs.get("request_id")


_EXTRAS = {
    ("LinkPredictionService", "top_k"): {"annotate": _annotate_top_k},
    ("LinkPredictionService", "batch_top_k_mixed"): {"annotate": _annotate_batch},
    ("MicroBatcher", "submit"): {"annotate": _annotate_submit},
    ("RankingCache", "get"): {"annotate": _annotate_cache},
    ("EndpointRouter", "dispatch"): {"root_key": _dispatch_request_id},
}


def install(recorder) -> None:
    """Wrap every call in :data:`LAYERS` on ``recorder``."""
    for module_name, class_name, attr, name in LAYERS:
        module = importlib.import_module(module_name)
        owner = module if class_name is None else getattr(module, class_name)
        recorder.wrap(owner, attr, name, **_EXTRAS.get((class_name, attr), {}))


def inject_delay(recorder, layer: str, seconds: float) -> int:
    """Make every call of ``layer`` sleep ``seconds`` first (self-test only).

    The delay is a wrapper of the benchmark's own, registered on
    ``recorder`` so :meth:`~tracing.Recorder.unwrap_all` removes it.
    Returns how many call sites were slowed.
    """
    count = 0
    for module_name, class_name, attr, name in LAYERS:
        if name != layer:
            continue
        module = importlib.import_module(module_name)
        owner = module if class_name is None else getattr(module, class_name)

        def make(original):
            def slowed(*args, **kwargs):
                time.sleep(seconds)
                return original(*args, **kwargs)

            return slowed

        recorder.patch(owner, attr, make)
        count += 1
    if count == 0:
        raise ValueError(f"unknown layer {layer!r}")
    return count


def apply_delays(recorder, specs) -> None:
    """Apply ``LAYER=SECONDS`` specs, as ``--inject-delay`` gives them."""
    for spec in specs:
        layer, _, seconds = spec.partition("=")
        inject_delay(recorder, layer, float(seconds))
