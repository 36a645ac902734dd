"""Serving latency and error rate under 10% fault injection.

Boots a real HTTP server over a synthetic artifact and drives the same
request stream twice — chaos disabled, then with ``serving.request``
faults armed at 10% — recording both passes into ``BENCH_serving.json``:

* ``chaos_off`` — the baseline hot path with the injector inactive, the
  number the "no measurable regression with chaos disabled" gate reads;
* ``chaos_degradation`` — p50/p95/p99 of *answered* requests plus the
  clean-failure rate while one request in ten dies at the fault point.

The in-test assertions are deliberately loose (CI timing is noisy); the
trajectory file carries the precise numbers.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.models.persistence import FrozenPredictor
from repro.reliability.faults import GLOBAL_INJECTOR
from repro.serving.aio import AsyncLinkPredictionServer
from repro.serving.artifacts import ArtifactStore
from repro.serving.service import LinkPredictionService

from trajectory import outcome_summary, percentile_summary, record_snapshot

N_USERS = 500
N_REQUESTS = 200
TOP_K = 10
FAULT_RATE = 0.10

_CONTEXT = {
    "n_users": N_USERS,
    "n_requests": N_REQUESTS,
    "top_k": TOP_K,
    "fault_rate": FAULT_RATE,
}


@pytest.fixture(scope="module")
def endpoint(tmp_path_factory):
    """A live server over one synthetic published artifact."""
    rng = np.random.default_rng(424242)
    scores = rng.normal(size=(N_USERS, N_USERS))
    store = ArtifactStore(str(tmp_path_factory.mktemp("chaos-store")))
    store.publish(FrozenPredictor((scores + scores.T) / 2.0, {"name": "chaos"}))
    service = LinkPredictionService(store, cache_size=N_REQUESTS * 2)
    server = AsyncLinkPredictionServer(
        service, port=0, request_deadline_s=10.0
    ).start()
    yield f"http://127.0.0.1:{server.server_address[1]}", service
    server.shutdown()
    server.server_close()


def _drive(base):
    """One request pass; returns (per-request latencies, status codes)."""
    latencies, statuses = [], []
    for i in range(N_REQUESTS):
        url = f"{base}/v1/topk?user={i % N_USERS}&k={TOP_K}"
        start = time.perf_counter()
        try:
            with urllib.request.urlopen(url, timeout=10) as response:
                json.load(response)
                statuses.append(response.status)
        except urllib.error.HTTPError as exc:
            json.loads(exc.read().decode("utf-8"))  # errors must stay JSON
            statuses.append(exc.code)
        latencies.append(time.perf_counter() - start)
    return latencies, statuses


def test_latency_and_error_rate_under_chaos(benchmark, endpoint):
    base, service = endpoint

    def run():
        GLOBAL_INJECTOR.reset()
        baseline = _drive(base)
        GLOBAL_INJECTOR._seed = 424242
        GLOBAL_INJECTOR.arm("serving.request", probability=FAULT_RATE)
        try:
            chaotic = _drive(base)
        finally:
            GLOBAL_INJECTOR.reset()
        return baseline, chaotic

    (base_lat, base_st), (chaos_lat, chaos_st) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    base_stats = record_snapshot(
        "chaos_off",
        {**percentile_summary(base_lat), **outcome_summary(base_st)},
        context=_CONTEXT,
    )["stats"]
    chaos_stats = record_snapshot(
        "chaos_degradation",
        {**percentile_summary(chaos_lat), **outcome_summary(chaos_st)},
        context=_CONTEXT,
    )["stats"]
    print(
        f"\nchaos off  p50={base_stats['p50_ms']:.3f}ms"
        f" p99={base_stats['p99_ms']:.3f}ms"
        f" errors={base_stats['error_rate']:.1%}"
        f"\nchaos 10%  p50={chaos_stats['p50_ms']:.3f}ms"
        f" p99={chaos_stats['p99_ms']:.3f}ms"
        f" errors={chaos_stats['error_rate']:.1%}"
    )

    # The clean path stays clean, and chaos produces only *clean* failures
    # near the armed rate — a crash or non-JSON body fails _drive itself.
    assert base_stats["error_rate"] == 0.0
    assert 0.0 < chaos_stats["error_rate"] < 3.0 * FAULT_RATE
    # Surviving requests must not slow pathologically under injection.
    assert chaos_stats["p99_ms"] < 1e3
