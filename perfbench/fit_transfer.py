"""``fit-transfer``: the full SLAMPRED fit with one source network.

generate -> intimacy features -> adaptation eigenproblem -> CCCP rounds
(gradient, SVT, l1 prox) -> publish -> load -> verify.  The model is
built from its default public constructor plus the problem size (no
``exact=`` or ``factored=``), so the workload follows whatever the
production fit path is.  Serving does no work here beyond reading the
freshly published artifact back: one top-k read per user to verify it,
then three timed passes of one score read per held-out pair.
"""

from __future__ import annotations

import gc
import json
import os
import time
import warnings
from contextlib import nullcontext

import numpy as np

from common import median, peak_rss_mb, percentile, ranking_problem
from tracing import breakdown, self_times, totals_by_name

SCALE = 800
FOLDS = 5
SVD_RANK = 60
INNER = 10
OUTER = 10
TOP_K = 10
# Timed passes of one ``score`` read per held-out pair, after a first
# per-user ``top_k`` pass that the output checks use.
READ_PASSES = 3
SETUPS = 3
# A served AUC that moves further than this from the seeded reference is a
# wrong answer, not noise: repeated fits of one seed are bit-identical.
AUC_TOLERANCE = 0.01

_clock = time.perf_counter


def _setup(seed):
    """Task in hand: the aligned pair, one link split and the task."""
    from repro.evaluation import splits
    from repro.models.base import TransferTask
    from repro.networks.social import SocialGraph
    from repro.synth import generator

    aligned = generator.generate_aligned_pair(scale=SCALE, random_state=seed)
    graph = SocialGraph.from_network(aligned.target)
    split = splits.k_fold_link_splits(graph, n_folds=FOLDS, random_state=seed)[0]
    task = TransferTask.from_aligned(
        aligned, training_graph=split.training_graph, random_state=seed
    )
    return task, split


def _reference(bench_dir, seed):
    with open(os.path.join(bench_dir, "reference.json")) as handle:
        table = json.load(handle)["fit-transfer"]
    return table["heldout_auc"].get(str(seed)), table["auc_floor"]


class _Fit:
    """One timed fit -> publish -> verify -> read-back cycle."""

    def __init__(self, task, split, store_dir, recorder=None):
        from repro.evaluation.metrics import auc_score
        from repro.models.slampred import SlamPred
        from repro.serving.artifacts import ArtifactStore
        from repro.serving.service import LinkPredictionService

        store = ArtifactStore(store_dir)
        with recorder.span("fit") if recorder is not None else nullcontext():
            started = _clock()
            model = SlamPred(svd_rank=SVD_RANK, inner_iterations=INNER, outer_iterations=OUTER)
            with warnings.catch_warnings():
                # Rank-capped SVT warns on every lossy application by design.
                warnings.simplefilter("ignore")
                model.fit(task)
            fitted = _clock()
            version = store.publish(model, graph=split.training_graph, meta={"workload": "fit-transfer"})
            store.verify(version)
            service = LinkPredictionService(store, version=version)
            servable = _clock()
            n = service.n_users
            self.answers = [service.top_k(user, TOP_K) for user in range(n)]
            self.reads = []
            for _ in range(READ_PASSES):
                self.served = []
                for u, v in split.test_pairs:
                    began = _clock()
                    self.served.append(service.score(u, v))
                    self.reads.append(_clock() - began)
            ended = _clock()
        self.fit_s = fitted - started
        self.servable_s = servable - started
        self.total_s = ended - started
        # Clock readings, so each time can be scaled to reference speed.
        self.marks = (started, fitted, servable, ended)
        self.n_users = n
        self.model = model
        self.auc = float(auc_score(model.score_pairs(split.test_pairs), split.test_labels))
        self.fb_iterations = len(model.result.history.records)
        self.cccp_rounds = int(model.result.n_rounds)

    def release(self):
        """Drop the model and the answers, keeping only the scalars.

        Every fit is checked as soon as it finishes and then released, so
        ``peak_rss_mb`` is one fit's high-water mark however many fits the
        time budget allows.
        """
        self.model = self.answers = self.served = None
        gc.collect()
        return self


def _verify_answers(fit, split, outcome):
    """Served rankings must match rankings computed from the model itself."""
    scores = np.array(fit.model.score_matrix, dtype=float)
    adjacency = split.training_graph.adjacency
    n = scores.shape[0]
    for user in range(n):
        ranking = fit.answers[user]
        known = set(np.flatnonzero(adjacency[user] > 0).tolist())
        problem = ranking_problem(ranking, TOP_K, user, n, known)
        if problem is None:
            row = scores[user].copy()
            row[list(known)] = -np.inf
            row[user] = -np.inf
            expected = np.sort(row[np.isfinite(row)])[::-1][:TOP_K]
            served = np.array([s for _, s in ranking])
            if served.shape != expected.shape or not np.allclose(served, expected, rtol=0, atol=1e-12):
                problem = f"user {user}: served scores differ from the fitted model"
            elif any(abs(scores[user, c] - s) > 1e-12 for c, s in ranking):
                problem = f"user {user}: served candidate scores differ from the model"
        outcome.check(problem is None, problem or "")


def _check_fit(fit, split, reference, floor, first_auc, outcome):
    """Every output check of one fit, made while its model is still alive."""
    _verify_answers(fit, split, outcome)
    expected = fit.model.score_pairs(split.test_pairs)
    outcome.check(
        np.allclose(fit.served, expected, rtol=0, atol=1e-12),
        "served held-out scores differ from the fitted model",
    )
    if first_auc is not None:
        outcome.check(fit.auc == first_auc, f"repeated fit gave AUC {fit.auc!r}, first gave {first_auc!r}")
    if reference is not None:
        outcome.check(
            abs(fit.auc - reference) <= AUC_TOLERANCE,
            f"held-out AUC {fit.auc:.4f} vs seeded reference {reference:.4f}",
        )
    else:
        outcome.check(fit.auc >= floor, f"held-out AUC {fit.auc:.4f} under floor {floor:.4f}")


def run(ctx, outcome):
    """Measure or trace ``fit-transfer``; fills ``outcome``."""
    reference, floor = _reference(ctx.bench_dir, ctx.seed)
    setups = []
    for _ in range(1 if ctx.trace else SETUPS):
        began = _clock()
        task, split = _setup(ctx.seed)
        setups.append(ctx.speed.since(began))

    def checked(fit, first_auc):
        _check_fit(fit, split, reference, floor, first_auc, outcome)
        return fit.release()

    first = checked(_Fit(task, split, ctx.path("store-0")), None)
    fits = [first]
    budget = ctx.seconds / 2 if ctx.trace else ctx.seconds
    planned = max(1, round(budget / first.total_s))
    for index in range(1, planned):
        fits.append(checked(_Fit(task, split, ctx.path(f"store-{index}")), first.auc))

    traced = []
    if ctx.trace:
        ctx.install_layers()
        began = _clock()
        task_t, split_t = _setup(ctx.seed)
        setup_traced = _clock() - began
        for index in range(planned):
            fit = _Fit(task_t, split_t, ctx.path(f"store-t{index}"), ctx.recorder)
            traced.append(checked(fit, first.auc))
        ctx.uninstall_layers()

    reads = [r for fit in fits for r in fit.reads]
    # CPU-bound times at reference speed (speed.py), each scaled by the
    # host speed probe's samples taken while it ran.
    speed = ctx.speed.factor
    scaled_reads = [r * speed(*f.marks[2:]) for f in fits for r in f.reads]
    outcome.note("set-ups at reference speed: " + ", ".join(f"{t:.3f}s" for t in setups))
    outcome.e2e.update(
        setup_s=median(setups),
        fit_s=median([f.fit_s * speed(*f.marks[:2]) for f in fits]),
        servable_p50_s=median([f.servable_s * speed(f.marks[0], f.marks[2]) for f in fits]),
        latency_p50_ms=percentile(scaled_reads, 50) * 1e3,
        heldout_auc=fits[0].auc,
        peak_rss_mb=peak_rss_mb(),
    )
    outcome.note(
        f"fit-transfer: {first.n_users} users, {len(fits)} untraced fit(s) "
        f"{', '.join(f'{f.fit_s:.2f}s' for f in fits)}; {len(reads)} score reads; "
        f"AUC {fits[0].auc:.4f} (reference {reference if reference is not None else 'none'})"
    )
    if ctx.trace:
        outcome.layers["request.latency_p99_ms"] = percentile(reads, 99) * 1e3
        _layers(ctx, outcome, fits, traced, setup_traced)


def _layers(ctx, outcome, fits, traced, setup_traced):
    spans = ctx.recorder.spans
    selfs = self_times(spans)
    tree = breakdown(spans, selfs, "fit", "s per fit")
    per_fit = tree["self"]
    setup = totals_by_name([s for s in spans if s.span_id not in tree["members"]], selfs)
    layers = outcome.layers
    layers["synth.generate_s"] = setup["synth.generate"][0] if "synth.generate" in setup else 0.0
    for name in (
        "features.extract",
        "adaptation.fit",
        "adaptation.transform",
        "optim.gradient",
        "perf.svt",
        "optim.entry_prox",
        "persistence.publish",
        "persistence.load",
    ):
        layers[f"{name}_s"] = per_fit.get(name, 0.0)
    layers["fit.unattributed_s"] = per_fit["fit"]
    layers["perf.svt_calls"] = tree["counts"].get("perf.svt", 0.0)
    layers["optim.fb_iterations"] = float(median([f.fb_iterations for f in traced]))
    layers["optim.cccp_rounds"] = float(median([f.cccp_rounds for f in traced]))
    fit_spans = [s for s in spans if s.span_id in tree["members"]]
    # Per-user read-back after publish (all cache misses): per-call average.
    reads = [s for s in fit_spans if s.name == "serving.top_k" and len(s.attrs["users"]) == 1]
    layers["serving.top_k_miss_ms"] = (
        1e3 * sum(selfs[s.span_id] for s in reads) / len(reads) if reads else 0.0
    )
    scores = [selfs[s.span_id] for s in fit_spans if s.name == "serving.score"]
    layers["serving.score_ms"] = 1e3 * sum(scores) / len(scores) if scores else 0.0
    gets = [s for s in fit_spans if s.name == "serving.cache"]
    layers["serving.cache_hit_ratio"] = (
        sum(1 for s in gets if s.attrs["hit"]) / len(gets) if gets else 0.0
    )
    traced_total = median([f.total_s for f in traced])
    untraced_total = median([f.total_s for f in fits])
    layers["tracing.overhead_pct"] = 100.0 * (traced_total - untraced_total) / untraced_total
    outcome.note(
        f"traced: {tree['n']} fit(s), wall {traced_total:.3f}s; "
        f"{per_fit['fit']:.3f}s per fit unattributed; set-up traced {setup_traced:.2f}s"
    )
    outcome.attribution = tree
