#!/usr/bin/env python
"""Solver hot-path smoke bench: exact vs fast fit at compact scale.

Two legs, matching the two guarantees the hot path makes:

* **Speedup** (``--scale``, ``--svd-rank``): fits the same rank-capped
  transfer task twice — ``exact=True`` (the seed solver: cold-start
  Lanczos SVT, sequential smooth terms, allocating inner loop) and the
  default hot path (warm-started rank-capped SVT, fused smooth
  objective, workspace-backed loop) — under identical convergence
  criteria.  Both paths compute the same best-effort rank-capped
  operator, so the gate here is predictive quality (AUC must agree to
  ``--auc-gap``), not bitwise parity.
* **Parity** (``--parity-scale``): fits with ``svd_rank=None`` — the
  figure-3 configuration's numerics, where the engine is exact — and
  gates the two score matrices to ``--parity`` (default 1e-6) max
  absolute difference.
* **Factored** (``--factored-n``): fits the factored O(nk) estimate on a
  synthetic sparse graph at a scale the dense path cannot reach (default
  n = 5000, where one dense iterate alone is 200 MB), scores a held-out
  link sample, and gates three claims: peak traced allocation under 25%
  of the dense cost extrapolated quadratically from this run's exact
  fit; a two-scale probe showing the peak grows sub-quadratically in n;
  and factored-vs-exact AUC drift at ``--parity-scale`` within
  ``--factored-drift`` (default 1e-3).
* **Sharded** (same block-model graph): fits
  :class:`~repro.sharding.model.ShardedSlamPred` at shards ∈ {1, 2, 4}
  on the n = 5000 training graph and gates four claims: shards=1
  reproduces the unsharded factored trajectory to ``--sharded-parity``
  (default 1e-8, and in practice bit-for-bit); merged held-out AUC at
  every shard count drifts at most ``--sharded-drift`` (default 1e-2)
  from the unsharded fit; solve time decreases monotonically from
  shards=1 to shards=4 (per-shard rank budgets shrink with shard size);
  and under ``--check`` the shards=1 wall-clock stays within 2x of the
  newest committed ``bench_sharded`` snapshot.  A recording run also
  publishes the shards=4 model to a throwaway sharded store and
  snapshots scatter-gather ``batch_top_k`` QPS into
  ``BENCH_serving.json``.

Also measures tracemalloc peaks (the allocation-free claim as a number)
and appends everything as snapshots to ``BENCH_solver.json``.  With
``--check`` the fast-path wall-clock is compared against the newest
committed ``bench_fast`` snapshot at the same scale and the run **fails
(exit 1) on a >2x regression** — the CI smoke gate.

Run from the repo root::

    PYTHONPATH=src python tools/solver_bench.py            # record
    PYTHONPATH=src python tools/solver_bench.py --check    # CI gate
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
import tracemalloc
import warnings

import numpy as np
from scipy import sparse

sys.path.insert(0, "benchmarks")

from trajectory import BENCH_SOLVER_PATH, load_trajectory, record_snapshot  # noqa: E402

from repro.evaluation.metrics import auc_score  # noqa: E402
from repro.evaluation.splits import k_fold_link_splits  # noqa: E402
from repro.exceptions import TruncatedSVTWarning  # noqa: E402
from repro.models.base import TransferTask  # noqa: E402
from repro.models.slampred import SlamPredH, SlamPredT  # noqa: E402
from repro.networks.social import SocialGraph  # noqa: E402
from repro.serving.service import LinkPredictionService  # noqa: E402
from repro.sharding import ShardedArtifactStore, ShardedSlamPred  # noqa: E402
from repro.synth.generator import generate_aligned_pair  # noqa: E402

REGRESSION_FACTOR = 2.0
# The tentpole's acceptance bar: the factored fit's peak allocation must
# stay under this fraction of the dense solver's quadratic extrapolation.
FACTORED_ALLOC_FRACTION = 0.25
# Doubling n must not quadruple the peak; linear in n·k would be 2x.
FACTORED_RATIO_LIMIT = 3.0
# The sharded sweep: single-shard parity, then the scaling claim.
SHARD_COUNTS = (1, 2, 4)
# Per-step timer jitter allowance for the monotonic solve-time gate —
# the endpoints (shards=4 strictly under shards=1) stay strict.
SHARDED_JITTER = 1.10


def _problem(scale):
    aligned = generate_aligned_pair(scale=scale, random_state=1)
    graph = SocialGraph.from_network(aligned.target)
    split = k_fold_link_splits(graph, n_folds=5, random_state=1)[0]
    return aligned, split


def _fit(aligned, split, svd_rank, inner, outer, exact, factored=False):
    task = TransferTask(
        target=aligned.target,
        training_graph=split.training_graph,
        random_state=np.random.default_rng(1),
    )
    model = SlamPredT(
        svd_rank=svd_rank,
        inner_iterations=inner,
        outer_iterations=outer,
        exact=exact,
        factored=factored,
    )
    tracemalloc.start()
    start = time.perf_counter()
    with warnings.catch_warnings():
        # Both paths warn on every lossy rank-capped application, by
        # design; a bench run would otherwise drown in them.
        warnings.simplefilter("ignore", TruncatedSVTWarning)
        model.fit(task)
    seconds = time.perf_counter() - start
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return model, seconds, peak_bytes


def _auc(model, split):
    return float(
        auc_score(model.score_pairs(split.test_pairs), split.test_labels)
    )


def _synthetic_adjacency(n, degree, seed, n_blocks=8):
    """A sparse stochastic block model with expected degree ``degree``.

    Built block by block (never a dense n×n mask) so generation itself
    stays O(nk).  Most links live inside one of ``n_blocks`` communities,
    which a rank-``n_blocks`` estimate can recover — held-out links are
    genuinely predictable, unlike in an Erdős–Rényi graph where any AUC
    is chance.
    """
    rng = np.random.default_rng(seed)
    block = -(-n // n_blocks)
    p_in = degree * 0.8 / block
    rows, cols = [], []
    for start in range(0, n, block):
        size = min(block, n - start)
        mask = np.triu(rng.random((size, size)) < p_in, k=1)
        r, c = np.nonzero(mask)
        rows.append(r + start)
        cols.append(c + start)
    n_cross = int(n * degree * 0.2 / 2)
    rows.append(rng.integers(0, n, n_cross))
    cols.append(rng.integers(0, n, n_cross))
    row = np.concatenate(rows)
    col = np.concatenate(cols)
    adjacency = sparse.coo_matrix(
        (np.ones(row.size), (row, col)), shape=(n, n)
    )
    adjacency = ((adjacency + adjacency.T) > 0).astype(float).tocsr()
    adjacency.setdiag(0.0)
    adjacency.eliminate_zeros()
    return adjacency


def _holdout_links(adjacency, fraction, seed):
    """Remove ``fraction`` of links; return (training, pairs, labels).

    Held-out positives are balanced against uniformly sampled non-links
    so the AUC below is a standard balanced link-prediction score.
    """
    rng = np.random.default_rng(seed)
    upper = sparse.triu(adjacency, k=1).tocoo()
    n_links = upper.nnz
    held = np.zeros(n_links, dtype=bool)
    held[
        rng.choice(n_links, size=max(1, int(fraction * n_links)), replace=False)
    ] = True
    training = sparse.coo_matrix(
        (upper.data[~held], (upper.row[~held], upper.col[~held])),
        shape=adjacency.shape,
    )
    training = (training + training.T).tocsr()
    positives = list(zip(upper.row[held].tolist(), upper.col[held].tolist()))
    linked = set(zip(upper.row.tolist(), upper.col.tolist()))
    n = adjacency.shape[0]
    negatives = []
    while len(negatives) < len(positives):
        u, v = sorted(rng.integers(0, n, size=2).tolist())
        if u != v and (u, v) not in linked:
            negatives.append((u, v))
    labels = np.concatenate(
        [np.ones(len(positives)), np.zeros(len(negatives))]
    )
    return training, positives + negatives, labels


def _fit_factored(adjacency, rank, inner, outer, svt_options=None):
    """Factored structural fit under tracemalloc; (model, seconds, peak)."""
    model = SlamPredH(
        factored=True,
        svd_rank=rank,
        inner_iterations=inner,
        outer_iterations=outer,
        tolerance=1e-4,
        svt_options=svt_options,
    )
    tracemalloc.start()
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncatedSVTWarning)
        model.fit_adjacency(adjacency)
    seconds = time.perf_counter() - start
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return model, seconds, peak_bytes


def _baseline_seconds(path, scale):
    """Newest committed fast-path wall-clock at this scale, or None."""
    for snap in reversed(load_trajectory(path)["snapshots"]):
        if (
            snap.get("section") == "bench_fast"
            and snap.get("context", {}).get("scale") == scale
        ):
            return float(snap["stats"]["seconds"])
    return None


def _sharded_baseline_seconds(path, n_users):
    """Newest committed shards=1 wall-clock at this n, or None."""
    for snap in reversed(load_trajectory(path)["snapshots"]):
        if (
            snap.get("section") == "bench_sharded"
            and snap.get("context", {}).get("n_users") == n_users
        ):
            return float(snap["stats"]["seconds_shards_1"])
    return None


def _estimate_gap(first, second):
    """Max absolute difference between two factored estimates' factors.

    Compares the raw u/σ/vᵀ/residual arrays rather than densifying —
    at n = 5000 one dense reconstruction is 200 MB, and the parity claim
    is about the *trajectory* (same arrays out of the same solver), not
    merely the same product.  Shape mismatch means the trajectories
    diverged structurally and reports as ``inf``.
    """
    if first.u.shape != second.u.shape or first.s.shape != second.s.shape:
        return float("inf")
    gaps = [
        float(np.abs(first.u - second.u).max()),
        float(np.abs(first.s - second.s).max()),
        float(np.abs(first.vt - second.vt).max()),
    ]
    residuals = [r for r in (first.residual, second.residual) if r is not None]
    if len(residuals) == 2:
        diff = residuals[0] - residuals[1]
        gaps.append(float(abs(diff).max()) if diff.nnz else 0.0)
    elif len(residuals) == 1:
        gaps.append(
            float(abs(residuals[0]).max()) if residuals[0].nnz else 0.0
        )
    return max(gaps)


def _fit_sharded(training, labels, n_shards, rank):
    """Best-of-2 sharded fit; returns (model, seconds).

    Two runs absorb scheduler jitter in the monotonic solve-time gate —
    the fits themselves are deterministic, so the faster run is the same
    model with less measurement noise.
    """
    best_model, best_seconds = None, None
    for _ in range(2):
        model = ShardedSlamPred(
            n_shards=n_shards,
            svd_rank=rank,
            inner_iterations=3,
            outer_iterations=2,
            tolerance=1e-4,
        )
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncatedSVTWarning)
            model.fit(training, labels=labels)
        seconds = time.perf_counter() - start
        if best_seconds is None or seconds < best_seconds:
            best_model, best_seconds = model, seconds
    return best_model, best_seconds


def _scatter_gather_qps(model, training, k=10, n_queries=256):
    """Publish to a throwaway store and time scatter-gather batch_top_k.

    Returns (qps_cold, qps_warm): one pass against an empty ranking
    cache and one fully cached repeat of the same users.
    """
    rng = np.random.default_rng(9)
    users = rng.choice(
        training.shape[0], size=n_queries, replace=False
    ).tolist()
    with tempfile.TemporaryDirectory() as tmp:
        store = ShardedArtifactStore(os.path.join(tmp, "store"))
        store.publish(model, graph=training)
        service = LinkPredictionService(store)
        start = time.perf_counter()
        service.batch_top_k(users, k=k)
        cold = time.perf_counter() - start
        start = time.perf_counter()
        service.batch_top_k(users, k=k)
        warm = time.perf_counter() - start
    return n_queries / cold, n_queries / warm


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, default=300)
    parser.add_argument("--svd-rank", type=int, default=40, dest="svd_rank")
    parser.add_argument("--inner", type=int, default=8)
    parser.add_argument("--outer", type=int, default=6)
    parser.add_argument("--auc-gap", type=float, default=0.05, dest="auc_gap")
    parser.add_argument(
        "--parity-scale", type=int, default=140, dest="parity_scale"
    )
    parser.add_argument("--parity", type=float, default=1e-6)
    parser.add_argument(
        "--factored-n", type=int, default=5000, dest="factored_n"
    )
    parser.add_argument(
        "--factored-degree", type=int, default=6, dest="factored_degree"
    )
    parser.add_argument(
        "--factored-rank", type=int, default=8, dest="factored_rank"
    )
    parser.add_argument(
        "--factored-drift", type=float, default=1e-3, dest="factored_drift"
    )
    parser.add_argument(
        "--sharded-drift", type=float, default=1e-2, dest="sharded_drift"
    )
    parser.add_argument(
        "--sharded-parity", type=float, default=1e-8, dest="sharded_parity"
    )
    parser.add_argument("--path", default=BENCH_SOLVER_PATH)
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the committed baseline instead of recording; "
        "exit 1 on a >2x fast-path wall-clock regression",
    )
    args = parser.parse_args(argv)

    baseline = _baseline_seconds(args.path, args.scale) if args.check else None

    # --- speedup leg: rank-capped, warm path vs seed solver -------------
    aligned, split = _problem(args.scale)
    exact_model, exact_seconds, exact_peak = _fit(
        aligned, split, args.svd_rank, args.inner, args.outer, exact=True
    )
    fast_model, fast_seconds, fast_peak = _fit(
        aligned, split, args.svd_rank, args.inner, args.outer, exact=False
    )
    exact_auc = _auc(exact_model, split)
    fast_auc = _auc(fast_model, split)
    speedup = exact_seconds / fast_seconds
    engine = fast_model._svt_engine
    applies = max(1, int(engine.stats["applies"]))
    print(
        f"scale {args.scale} ({aligned.target.n_users} users, "
        f"svd_rank {args.svd_rank}): "
        f"exact {exact_seconds:.2f}s / {exact_peak / 1e6:.0f}MB peak, "
        f"fast {fast_seconds:.2f}s / {fast_peak / 1e6:.0f}MB peak "
        f"({speedup:.2f}x), AUC {exact_auc:.3f} -> {fast_auc:.3f}, "
        f"SVT {engine.stats['seconds'] / applies * 1e3:.1f}ms/apply, "
        f"{int(engine.stats['dense_fallbacks'])} fallbacks"
    )
    if not np.isfinite(fast_auc) or abs(fast_auc - exact_auc) > args.auc_gap:
        print(
            f"FAIL: fast-path AUC {fast_auc:.3f} deviates from the seed "
            f"solver's {exact_auc:.3f} by more than {args.auc_gap}"
        )
        return 1

    # --- parity leg: svd_rank=None, the figure-3 configuration ---------
    p_aligned, p_split = _problem(args.parity_scale)
    p_exact, p_exact_seconds, _ = _fit(
        p_aligned, p_split, None, args.inner, args.outer, exact=True
    )
    p_fast, p_fast_seconds, _ = _fit(
        p_aligned, p_split, None, args.inner, args.outer, exact=False
    )
    max_abs_diff = float(
        np.abs(p_exact.score_matrix - p_fast.score_matrix).max()
    )
    print(
        f"parity at scale {args.parity_scale} (svd_rank None): "
        f"exact {p_exact_seconds:.2f}s, fast {p_fast_seconds:.2f}s, "
        f"max|diff|={max_abs_diff:.2e}"
    )
    if not np.isfinite(max_abs_diff) or max_abs_diff > args.parity:
        print(
            f"FAIL: fast-path parity {max_abs_diff:.3e} exceeds "
            f"{args.parity:.1e}"
        )
        return 1

    # --- factored leg: O(nk) estimate at a scale dense cannot reach ----
    # Quality first, at the parity scale where the exact fit exists.
    p_factored, _, _ = _fit(
        p_aligned, p_split, None, args.inner, args.outer,
        exact=False, factored=True,
    )
    p_exact_auc = _auc(p_exact, p_split)
    p_factored_auc = _auc(p_factored, p_split)
    auc_drift = abs(p_factored_auc - p_exact_auc)
    print(
        f"factored AUC at scale {args.parity_scale}: "
        f"exact {p_exact_auc:.4f}, factored {p_factored_auc:.4f} "
        f"(drift {auc_drift:.2e})"
    )
    if not np.isfinite(p_factored_auc) or auc_drift > args.factored_drift:
        print(
            f"FAIL: factored AUC drifts {auc_drift:.3e} from the exact "
            f"solver at scale {args.parity_scale} (> {args.factored_drift})"
        )
        return 1

    # Memory next, at large n.  The dense cost is extrapolated from this
    # run's own exact fit: alloc is quadratic in users, so scale by
    # (factored_n / n_users)².
    adjacency = _synthetic_adjacency(
        args.factored_n, args.factored_degree, seed=7
    )
    training, heldout_pairs, heldout_labels = _holdout_links(
        adjacency, fraction=0.1, seed=8
    )
    factored_model, factored_seconds, factored_peak = _fit_factored(
        training, args.factored_rank, inner=3, outer=2
    )
    factored_auc = float(
        auc_score(
            factored_model.score_pairs(heldout_pairs), heldout_labels
        )
    )
    dense_extrapolated = exact_peak * (
        args.factored_n / aligned.target.n_users
    ) ** 2
    print(
        f"factored n={args.factored_n} (rank {args.factored_rank}): "
        f"{factored_seconds:.2f}s, {factored_peak / 1e6:.1f}MB peak vs "
        f"{dense_extrapolated / 1e6:.0f}MB dense-extrapolated, "
        f"held-out AUC {factored_auc:.3f}"
    )
    if factored_peak >= FACTORED_ALLOC_FRACTION * dense_extrapolated:
        print(
            f"FAIL: factored peak {factored_peak / 1e6:.1f}MB is not under "
            f"{FACTORED_ALLOC_FRACTION:.0%} of the dense extrapolation "
            f"({dense_extrapolated / 1e6:.0f}MB)"
        )
        return 1
    # Two-scale probe: sub-quadratic growth, not just a low absolute.
    half_adjacency = _synthetic_adjacency(
        args.factored_n // 2, args.factored_degree, seed=7
    )
    _, _, half_peak = _fit_factored(
        half_adjacency, args.factored_rank, inner=3, outer=2
    )
    peak_ratio = factored_peak / max(1, half_peak)
    print(
        f"factored peak ratio n/2 -> n: {half_peak / 1e6:.1f}MB -> "
        f"{factored_peak / 1e6:.1f}MB ({peak_ratio:.2f}x)"
    )
    if peak_ratio >= FACTORED_RATIO_LIMIT:
        print(
            f"FAIL: factored peak grew {peak_ratio:.2f}x for 2x users — "
            f"super-linear in n·k (limit {FACTORED_RATIO_LIMIT}x)"
        )
        return 1

    # --- sharded leg: community shards on the same block-model graph ---
    # The generator lays its 8 communities out in contiguous blocks, so
    # the planted labels are simply user // block_size.
    block_size = -(-args.factored_n // 8)
    planted_labels = np.arange(args.factored_n) // block_size
    sharded_models, sharded_seconds, sharded_auc = {}, {}, {}
    for n_shards in SHARD_COUNTS:
        model, seconds = _fit_sharded(
            training, planted_labels, n_shards, args.factored_rank
        )
        sharded_models[n_shards] = model
        sharded_seconds[n_shards] = seconds
        sharded_auc[n_shards] = float(
            auc_score(model.score_pairs(heldout_pairs), heldout_labels)
        )
    # The unsharded comparator under the shard solver's exact options
    # (derived base seed, dense recovery disabled) — what shards=1 must
    # reproduce bit for bit.
    reference, _, _ = _fit_factored(
        training,
        args.factored_rank,
        inner=3,
        outer=2,
        svt_options={
            "seed": sharded_models[1].seed,
            "dense_fallback_cutoff": 0,
        },
    )
    reference_auc = float(
        auc_score(reference.score_pairs(heldout_pairs), heldout_labels)
    )
    sharded_parity = _estimate_gap(
        sharded_models[1].estimates[0], reference.factored_estimate
    )
    print(
        f"sharded n={args.factored_n}: "
        + ", ".join(
            f"shards={s} {sharded_seconds[s]:.2f}s "
            f"AUC {sharded_auc[s]:.3f}"
            for s in SHARD_COUNTS
        )
        + f"; unsharded AUC {reference_auc:.3f}, "
        f"shards=1 parity max|diff|={sharded_parity:.2e}"
    )
    if not sharded_parity <= args.sharded_parity:
        print(
            f"FAIL: shards=1 diverges from the unsharded factored fit by "
            f"{sharded_parity:.3e} (> {args.sharded_parity:.1e})"
        )
        return 1
    for n_shards in SHARD_COUNTS:
        # One-sided: sharding must not *lose* AUC.  Gains are expected —
        # shards spend their whole rank budget on one community's
        # spectrum instead of splitting it across all eight.
        drift = reference_auc - sharded_auc[n_shards]
        if not np.isfinite(sharded_auc[n_shards]) or (
            drift > args.sharded_drift
        ):
            print(
                f"FAIL: shards={n_shards} merged AUC "
                f"{sharded_auc[n_shards]:.4f} degrades {drift:.3e} below "
                f"the unsharded {reference_auc:.4f} (> {args.sharded_drift})"
            )
            return 1
    timeline = [sharded_seconds[s] for s in SHARD_COUNTS]
    steps_ok = all(
        later <= earlier * SHARDED_JITTER
        for earlier, later in zip(timeline, timeline[1:])
    )
    if not steps_ok or timeline[-1] >= timeline[0]:
        print(
            "FAIL: solve time is not monotonically decreasing across "
            + " -> ".join(
                f"shards={s}:{sharded_seconds[s]:.2f}s" for s in SHARD_COUNTS
            )
        )
        return 1

    if args.check:
        sharded_baseline = _sharded_baseline_seconds(
            args.path, args.factored_n
        )
        if sharded_baseline is None:
            print(
                "FAIL: no committed bench_sharded baseline at this n in "
                f"{args.path}; run without --check first and commit the file"
            )
            return 1
        if sharded_seconds[1] > REGRESSION_FACTOR * sharded_baseline:
            print(
                f"FAIL: shards=1 took {sharded_seconds[1]:.2f}s vs committed "
                f"baseline {sharded_baseline:.2f}s "
                f"(> {REGRESSION_FACTOR:.0f}x)"
            )
            return 1
        print(
            f"OK: shards=1 {sharded_seconds[1]:.2f}s vs baseline "
            f"{sharded_baseline:.2f}s (<= {REGRESSION_FACTOR:.0f}x)"
        )
        if baseline is None:
            print(
                "FAIL: no committed bench_fast baseline at this scale in "
                f"{args.path}; run without --check first and commit the file"
            )
            return 1
        if fast_seconds > REGRESSION_FACTOR * baseline:
            print(
                f"FAIL: fast path took {fast_seconds:.2f}s vs committed "
                f"baseline {baseline:.2f}s (> {REGRESSION_FACTOR:.0f}x)"
            )
            return 1
        print(
            f"OK: fast path {fast_seconds:.2f}s vs baseline {baseline:.2f}s "
            f"(<= {REGRESSION_FACTOR:.0f}x)"
        )
        return 0

    context = {
        "scale": args.scale,
        "n_users": int(aligned.target.n_users),
        "svd_rank": args.svd_rank,
        "inner_iterations": args.inner,
        "outer_iterations": args.outer,
    }
    record_snapshot(
        "bench_exact",
        {
            "seconds": exact_seconds,
            "alloc_peak_bytes": exact_peak,
            "auc": exact_auc,
        },
        context=context,
        path=args.path,
    )
    record_snapshot(
        "bench_fast",
        {
            "seconds": fast_seconds,
            "alloc_peak_bytes": fast_peak,
            "speedup": speedup,
            "auc": fast_auc,
            "svt_seconds": engine.stats["seconds"],
            "svt_applies": engine.stats["applies"],
            "svt_seconds_per_apply": engine.stats["seconds"] / applies,
            "svt_dense_fallbacks": engine.stats["dense_fallbacks"],
            "svt_lossy_truncations": engine.stats["lossy_truncations"],
            "svt_rank_grows": engine.stats["rank_grows"],
            "svt_rank_shrinks": engine.stats["rank_shrinks"],
            "final_rank": engine.rank,
        },
        context=context,
        path=args.path,
    )
    record_snapshot(
        "bench_parity",
        {
            "max_abs_diff": max_abs_diff,
            "exact_seconds": p_exact_seconds,
            "fast_seconds": p_fast_seconds,
        },
        context={"scale": args.parity_scale, "svd_rank": None},
        path=args.path,
    )
    record_snapshot(
        "bench_factored",
        {
            "seconds": factored_seconds,
            "alloc_peak_bytes": factored_peak,
            "alloc_peak_half_n_bytes": half_peak,
            "peak_ratio_half_to_full": peak_ratio,
            "dense_extrapolated_bytes": dense_extrapolated,
            "auc": factored_auc,
            "auc_drift_vs_exact": auc_drift,
        },
        context={
            "n_users": args.factored_n,
            "degree": args.factored_degree,
            "svd_rank": args.factored_rank,
            "inner_iterations": 3,
            "outer_iterations": 2,
            "holdout_fraction": 0.1,
            "drift_scale": args.parity_scale,
        },
        path=args.path,
    )
    sharded_stats = {"parity_max_abs_diff": sharded_parity}
    for n_shards in SHARD_COUNTS:
        sharded_stats[f"seconds_shards_{n_shards}"] = sharded_seconds[
            n_shards
        ]
        sharded_stats[f"auc_shards_{n_shards}"] = sharded_auc[n_shards]
    sharded_stats["auc_unsharded"] = reference_auc
    sharded_stats["speedup_max_shards"] = (
        sharded_seconds[SHARD_COUNTS[0]] / sharded_seconds[SHARD_COUNTS[-1]]
    )
    record_snapshot(
        "bench_sharded",
        sharded_stats,
        context={
            "n_users": args.factored_n,
            "degree": args.factored_degree,
            "svd_rank": args.factored_rank,
            "inner_iterations": 3,
            "outer_iterations": 2,
            "shard_counts": list(SHARD_COUNTS),
        },
        path=args.path,
    )
    qps_cold, qps_warm = _scatter_gather_qps(
        sharded_models[SHARD_COUNTS[-1]], training
    )
    print(
        f"scatter-gather shards={SHARD_COUNTS[-1]}: "
        f"{qps_cold:.0f} QPS cold, {qps_warm:.0f} QPS warm"
    )
    record_snapshot(
        "sharded_scatter_gather",
        {"qps_cold": qps_cold, "qps_warm": qps_warm},
        context={
            "n_users": args.factored_n,
            "n_shards": SHARD_COUNTS[-1],
            "k": 10,
            "n_queries": 256,
        },
    )
    print(
        "recorded bench_exact/bench_fast/bench_parity/bench_factored/"
        f"bench_sharded to {args.path} and sharded_scatter_gather to "
        "BENCH_serving.json"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
