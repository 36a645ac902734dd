"""Serving error rate and latency under 10% fault injection.

Boots a real HTTP server over a synthetic artifact and drives the same
request stream twice — chaos disabled, then with ``serving.request``
faults armed at 10%.  The clean pass must answer every request; the
chaotic pass must fail only cleanly (JSON error bodies) at about the
armed rate, and the requests it answers must not slow pathologically.
The latency bound is deliberately loose: CI timing is noisy.
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

N_USERS = 500
N_REQUESTS = 200
TOP_K = 10
FAULT_RATE = 0.10


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
    yield f"http://127.0.0.1:{server.server_address[1]}"
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


def _error_rate(statuses):
    return sum(1 for status in statuses if status >= 400) / len(statuses)


def test_latency_and_error_rate_under_chaos(endpoint):
    _, base_statuses = _drive(endpoint)
    GLOBAL_INJECTOR._seed = 424242
    GLOBAL_INJECTOR.arm("serving.request", probability=FAULT_RATE)
    try:
        chaos_latencies, chaos_statuses = _drive(endpoint)
    finally:
        GLOBAL_INJECTOR.reset()

    # The clean path stays clean, and chaos produces only *clean* failures
    # near the armed rate — a crash or non-JSON body fails _drive itself.
    assert _error_rate(base_statuses) == 0.0
    assert 0.0 < _error_rate(chaos_statuses) < 3.0 * FAULT_RATE
    # Surviving requests must not slow pathologically under injection.
    assert np.percentile(chaos_latencies, 99) * 1e3 < 1e3
