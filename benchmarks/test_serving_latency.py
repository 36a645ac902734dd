"""Serving latency: cold vs warm-cache top-k, batcher throughput, overhead.

Runs against a paper-scale synthetic score matrix (no model fitting — the
serving layer never imports the training stack), so the numbers isolate
the ranking/caching/batching hot path itself:

* cold top-k — every query misses the cache and pays one row partition;
* warm top-k — the same users again, answered from the LRU cache;
* batcher throughput — many threads submitting concurrently, coalesced
  into shared vectorized passes;
* telemetry overhead — the same cold pass with live metrics+tracing vs
  the ``NullTracer``/``NullRegistry`` disabled path.

Every section appends a p50/p95/p99 snapshot to the repo-root
``BENCH_serving.json`` via :mod:`trajectory`, so each run extends the
perf baseline future PRs regress against.  Print the tables with
``pytest benchmarks/test_serving_latency.py --benchmark-only -s``.
"""

from __future__ import annotations

import gc
import threading
import time

import numpy as np
import pytest

from repro.models.persistence import FrozenPredictor
from repro.observability.metrics import NullRegistry
from repro.observability.tracer import NullTracer
from repro.serving.artifacts import ArtifactStore
from repro.serving.batcher import MicroBatcher
from repro.serving.service import LinkPredictionService

from trajectory import percentile_summary, record_snapshot

N_USERS = 2000          # the paper's networks hold a few thousand users
LINK_DENSITY = 0.01
N_QUERIES = 400
TOP_K = 10

_CONTEXT = {
    "n_users": N_USERS,
    "n_queries": N_QUERIES,
    "top_k": TOP_K,
}


@pytest.fixture(scope="module")
def published_store(tmp_path_factory):
    """A store holding one paper-scale synthetic artifact."""
    rng = np.random.default_rng(424242)
    scores = rng.normal(size=(N_USERS, N_USERS))
    scores = (scores + scores.T) / 2.0
    adjacency = np.triu(
        (rng.random((N_USERS, N_USERS)) < LINK_DENSITY).astype(float), 1
    )
    adjacency = adjacency + adjacency.T
    store = ArtifactStore(str(tmp_path_factory.mktemp("latency-store")))
    store.publish(
        FrozenPredictor(scores, {"name": "bench"}), graph=adjacency
    )
    return store


@pytest.fixture(scope="module")
def served(published_store):
    """A (fully instrumented) service over the published artifact."""
    return LinkPredictionService(published_store, cache_size=N_QUERIES * 2)


def _time_queries(service, users, k):
    latencies = []
    for user in users:
        start = time.perf_counter()
        service.top_k(int(user), k)
        latencies.append(time.perf_counter() - start)
    return latencies


def test_topk_cold_vs_warm_latency(benchmark, served):
    """Warm-cache queries must be far faster than cold row partitions."""
    users = np.arange(N_QUERIES) % N_USERS

    def run():
        served.cache.invalidate()
        cold = _time_queries(served, users, TOP_K)
        warm = _time_queries(served, users, TOP_K)
        return cold, warm

    cold, warm = benchmark.pedantic(run, rounds=1, iterations=1)
    cold_stats = record_snapshot(
        "topk_cold", percentile_summary(cold), context=_CONTEXT
    )["stats"]
    warm_stats = record_snapshot(
        "topk_warm", percentile_summary(warm), context=_CONTEXT
    )["stats"]
    print(
        f"\ntop_k(k={TOP_K}) over {N_USERS} users, {N_QUERIES} queries/pass"
        f"\n  cold  p50={cold_stats['p50_ms']:.3f}ms"
        f"  p95={cold_stats['p95_ms']:.3f}ms"
        f"  p99={cold_stats['p99_ms']:.3f}ms"
        f"\n  warm  p50={warm_stats['p50_ms']:.3f}ms"
        f"  p95={warm_stats['p95_ms']:.3f}ms"
        f"  p99={warm_stats['p99_ms']:.3f}ms"
    )
    hit_stats = served.stats()["cache"]
    assert hit_stats["hits"] >= N_QUERIES
    # Warm queries are dictionary lookups; cold ones partition a 2000-row.
    assert warm_stats["p50_ms"] <= cold_stats["p50_ms"]
    assert cold_stats["p99_ms"] < 1e3  # sanity: nothing pathological
    # Cache counters live in the hot tier now; a drain must reconcile
    # the registry series with the cache's own integers.
    served.cells.drain()
    http_family = served.registry.get("serving.cache.hits")
    assert http_family is not None and http_family.value >= N_QUERIES


def test_batch_topk_beats_singles(benchmark, served):
    """One vectorized batch pass must beat per-user python loops.

    A single cold pass per strategy was flaky: the first strategy to run
    paid numpy dispatch warmup and allocator growth for both, and one GC
    pause could flip the verdict.  Both paths are now warmed untimed,
    each strategy is timed over several cache-invalidated repeats, and
    the assertion compares per-strategy *medians* — the recorded speedup
    is a stable number instead of a coin flip.
    """
    users = list(range(200))
    repeats = 5

    def run():
        # Warm both code paths untimed (dispatch caches, allocator).
        served.cache.invalidate()
        for user in users[:8]:
            served.top_k(user, TOP_K)
        served.cache.invalidate()
        served.batch_top_k(users[:8], TOP_K)
        singles_times = []
        batched_times = []
        for _ in range(repeats):
            served.cache.invalidate()
            start = time.perf_counter()
            for user in users:
                served.top_k(user, TOP_K)
            singles_times.append(time.perf_counter() - start)
            served.cache.invalidate()
            start = time.perf_counter()
            served.batch_top_k(users, TOP_K)
            batched_times.append(time.perf_counter() - start)
        return singles_times, batched_times

    singles_times, batched_times = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    singles = float(np.median(singles_times))
    batched = float(np.median(batched_times))
    speedup = singles / max(batched, 1e-9)
    print(
        f"\n200 rankings ({repeats} repeats, medians): "
        f"singles={singles * 1e3:.1f}ms "
        f"batched={batched * 1e3:.1f}ms "
        f"(speedup {speedup:.1f}x)"
    )
    record_snapshot(
        "batch_vs_singles",
        {
            "singles_median_ms": singles * 1e3,
            "batched_median_ms": batched * 1e3,
            "speedup": speedup,
            "repeats": repeats,
        },
        context=_CONTEXT,
    )
    assert speedup > 1.0, (
        f"batched pass must beat sequential singles, got {speedup:.2f}x"
    )


def test_batcher_throughput(benchmark, served):
    """Concurrent submits coalesce; report requests/second and batch sizes."""
    n_threads = 8
    per_thread = 50

    def run():
        served.cache.invalidate()
        with MicroBatcher(served, max_batch=64) as batcher:
            errors = []

            def worker(offset):
                try:
                    for i in range(per_thread):
                        batcher.submit((offset * per_thread + i) % N_USERS, TOP_K)
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            start = time.perf_counter()
            threads = [
                threading.Thread(target=worker, args=(t,))
                for t in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed = time.perf_counter() - start
        assert not errors
        return elapsed

    elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
    total = n_threads * per_thread
    counters = served.tracer.counters
    batch_sizes = served.tracer.metrics.get("batcher.batch_size", [])
    print(
        f"\nbatcher: {total} requests / {elapsed:.3f}s "
        f"= {total / elapsed:.0f} req/s; "
        f"{counters['batcher.batches']} batches, "
        f"mean batch {np.mean(batch_sizes):.1f}"
    )
    record_snapshot(
        "batcher",
        {
            "requests_per_second": total / elapsed,
            "n_batches": counters["batcher.batches"],
            "mean_batch_size": float(np.mean(batch_sizes)),
        },
        context={**_CONTEXT, "n_threads": n_threads},
    )
    assert counters["batcher.requests"] >= total
    assert counters["batcher.batches"] <= total


def test_batcher_mixed_k_coalescing(benchmark, served):
    """One max-k scoring pass must beat per-k grouped passes on mixed load.

    This is the regression the batcher's per-k grouping caused: a batch
    whose requests carried several distinct ``k`` values used to issue
    one ``batch_top_k`` per ``k`` (0.86–0.97× of sequential under mixed
    load).  The batcher now issues a single ``batch_top_k_mixed`` pass —
    one argpartition/argsort at the batch's largest ``k``, each answer
    trimmed to its own request's ``k`` before materialization (exact,
    because every top-k list is a prefix of the top-max-k list).  This
    leg measures exactly those two strategies over the same mixed-k
    batch, checks the answers are identical, and records the speedup so
    it stays pinned.
    """
    # Batch size matches what the throughput leg actually observes
    # coalescing per batch (mean batch ≈ 8); at that size the per-k
    # split's extra numpy dispatches dominate, which is exactly the
    # production regime the batcher lives in.
    batch_size = 8
    n_batches = 64
    k_choices = (5, 10, 20, 50)
    batches = [
        (
            [(b * batch_size + i) % N_USERS for i in range(batch_size)],
            [k_choices[i % len(k_choices)] for i in range(batch_size)],
        )
        for b in range(n_batches)
    ]

    # Each pass times ~15-30 ms of work.  A generation-2 collection takes
    # 50-70 ms late in a `pytest benchmarks` run; one starting inside a
    # pass would time the collector instead of the strategy, so each pass
    # starts from a fresh collection.
    def run_grouped():
        gc.collect()
        elapsed = 0.0
        answers = {}
        for users, ks in batches:
            served.cache.invalidate()
            start = time.perf_counter()
            by_k = {}
            for user, k in zip(users, ks):
                by_k.setdefault(k, []).append(user)
            for k, group in by_k.items():
                for user, ranking in zip(
                    group, served.batch_top_k(group, k)
                ):
                    answers[(user, k)] = ranking
            elapsed += time.perf_counter() - start
        return elapsed, answers

    def run_coalesced():
        gc.collect()
        elapsed = 0.0
        answers = {}
        for users, ks in batches:
            served.cache.invalidate()
            start = time.perf_counter()
            rankings = served.batch_top_k_mixed(users, ks)
            for user, k, ranking in zip(users, ks, rankings):
                answers[(user, k)] = ranking
            elapsed += time.perf_counter() - start
        return elapsed, answers

    grouped_s, grouped_answers = run_grouped()
    coalesced_s, coalesced_answers = benchmark.pedantic(
        run_coalesced, rounds=1, iterations=1
    )
    assert coalesced_answers == grouped_answers, (
        "trimmed max-k answers must match the per-k passes exactly"
    )
    speedup = grouped_s / max(coalesced_s, 1e-9)
    print(
        f"\nmixed-k: per-k passes {grouped_s:.3f}s vs one coalesced pass "
        f"{coalesced_s:.3f}s (speedup {speedup:.2f}x)"
    )
    record_snapshot(
        "batcher_mixed_k",
        {
            "grouped_s": grouped_s,
            "coalesced_s": coalesced_s,
            "speedup": speedup,
        },
        context={
            **_CONTEXT,
            "batch_size": batch_size,
            "n_batches": n_batches,
            "k_choices": list(k_choices),
        },
    )
    assert speedup > 1.0, (
        f"coalesced mixed-k pass must beat per-k grouping, got {speedup:.2f}x"
    )


def test_telemetry_overhead(benchmark, published_store):
    """The disabled path (NullTracer+NullRegistry) must stay near-free.

    The instrumented service runs the full production telemetry stack —
    sampling tracer, striped hot counters/histograms, cache sync — while
    the disabled one takes the null path.  Five cache-invalidated passes
    per side, per-pass median, best-of-passes: robust to GC pauses.  The
    recorded ``overhead_pct`` is the number the CI ``telemetry-overhead``
    gate holds under 5% (tools/check_telemetry_gate.py); the in-test
    assertion stays loose because shared-runner timing is noisy.
    """
    users = np.arange(N_QUERIES) % N_USERS
    disabled = LinkPredictionService(
        published_store,
        cache_size=N_QUERIES * 2,
        tracer=NullTracer(),
        registry=NullRegistry(),
    )
    instrumented = LinkPredictionService(
        published_store, cache_size=N_QUERIES * 2
    )

    def run():
        timings = {}
        for label, service in (
            ("disabled", disabled), ("instrumented", instrumented)
        ):
            service.top_k(0, TOP_K)  # prime numpy dispatch caches
            passes = []
            for _ in range(5):
                service.cache.invalidate()
                passes.append(_time_queries(service, users, TOP_K))
            timings[label] = min(
                float(np.median(one_pass)) for one_pass in passes
            )
        return timings

    timings = benchmark.pedantic(run, rounds=1, iterations=1)
    overhead_pct = (
        (timings["instrumented"] - timings["disabled"])
        / timings["disabled"] * 100.0
    )
    print(
        f"\ncold top_k median: disabled={timings['disabled'] * 1e3:.3f}ms "
        f"instrumented={timings['instrumented'] * 1e3:.3f}ms "
        f"(overhead {overhead_pct:+.1f}%)"
    )
    record_snapshot(
        "telemetry_overhead",
        {
            "disabled_median_ms": timings["disabled"] * 1e3,
            "instrumented_median_ms": timings["instrumented"] * 1e3,
            "overhead_pct": overhead_pct,
        },
        context=_CONTEXT,
    )
    # Loose CI-safe bound; the trajectory file carries the precise number.
    assert timings["instrumented"] < timings["disabled"] * 2.0
