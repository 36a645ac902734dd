#!/usr/bin/env python
"""CI smoke check: boot a real server, scrape /metrics, validate the text.

End-to-end over a throwaway artifact store:

1. publish a tiny synthetic predictor;
2. start :class:`~repro.serving.aio.AsyncLinkPredictionServer` on a free
   port;
3. issue traffic (``/healthz``, ``/v1/topk`` twice — miss then hit, one
   404, one request with a caller-chosen ``X-Request-Id``);
4. scrape ``/metrics`` and fail unless the payload parses as Prometheus
   text format 0.0.4 and carries the core serving series with the counts
   the traffic implies — the tracer's ``repro_trace_*`` series included,
   which reach the registry only through the drain of its striped
   cells.

Run from the repo root::

    PYTHONPATH=src python tools/metrics_smoke.py
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
import urllib.error
import urllib.request

import numpy as np

from repro.models.persistence import FrozenPredictor
from repro.serving.aio import AsyncLinkPredictionServer
from repro.serving.artifacts import ArtifactStore
from repro.serving.service import LinkPredictionService

N_USERS = 32
_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? ([^ ]+)$")

REQUIRED_SERIES = (
    "repro_serving_http_request_seconds_bucket",
    "repro_serving_http_request_seconds_sum",
    "repro_serving_http_request_seconds_count",
    "repro_serving_http_not_found_total",
    "repro_serving_cache_hits_total",
    "repro_serving_cache_misses_total",
    "repro_serving_cache_size",
    "repro_serving_uptime_seconds",
    "repro_serving_artifact_version",
    "repro_trace_started_total",
    "repro_trace_sampled_total",
    "repro_trace_errors_total",
)


def parse_prometheus(text):
    """Validate structure; return ({metric: set(labelsets)}, {line: value})."""
    metrics, samples = {}, {}
    typed = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "histogram"
            ):
                raise SystemExit(f"metrics:{lineno}: bad TYPE line: {line!r}")
            typed.add(parts[2])
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise SystemExit(f"metrics:{lineno}: malformed sample: {line!r}")
        name, labels, value = match.groups()
        if value != "+Inf":
            float(value)  # must parse
        metrics.setdefault(name, set()).add(labels or "")
        samples[f"{name}{labels or ''}"] = (
            float("inf") if value == "+Inf" else float(value)
        )
    if not typed:
        raise SystemExit("metrics: no # TYPE lines at all")
    return metrics, samples


def main() -> int:
    rng = np.random.default_rng(7)
    scores = rng.normal(size=(N_USERS, N_USERS))
    with tempfile.TemporaryDirectory() as tmp:
        store = ArtifactStore(tmp)
        store.publish(FrozenPredictor((scores + scores.T) / 2, {"name": "smoke"}))
        service = LinkPredictionService(store)
        server = AsyncLinkPredictionServer(service, port=0).start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        issued = 0  # requests before the scrape; each opens one trace
        try:
            with urllib.request.urlopen(f"{base}/healthz", timeout=10) as r:
                issued += 1
                assert json.load(r)["status"] == "ok"
            for _ in range(2):  # miss, then cache hit
                req = urllib.request.Request(
                    f"{base}/v1/topk?user=1&k=5",
                    headers={"X-Request-Id": "smoke-req-1"},
                )
                with urllib.request.urlopen(req, timeout=10) as r:
                    issued += 1
                    assert r.headers["X-Request-Id"] == "smoke-req-1"
                    assert len(json.load(r)["candidates"]) == 5
            try:
                urllib.request.urlopen(f"{base}/definitely-not-a-route")
            except urllib.error.HTTPError as exc:
                issued += 1
                assert exc.code == 404
            with urllib.request.urlopen(f"{base}/metrics", timeout=10) as r:
                content_type = r.headers["Content-Type"]
                text = r.read().decode("utf-8")
        finally:
            server.shutdown()
            server.server_close()

    if not content_type.startswith("text/plain; version=0.0.4"):
        raise SystemExit(f"unexpected /metrics content type: {content_type}")
    metrics, samples = parse_prometheus(text)
    missing = [name for name in REQUIRED_SERIES if name not in metrics]
    if missing:
        raise SystemExit(f"missing required series: {missing}")
    checks = {
        "repro_serving_cache_hits_total": 1,
        "repro_serving_cache_misses_total": 1,
        "repro_serving_http_not_found_total": 1,
        'repro_serving_http_request_seconds_count'
        '{route="topk",method="GET",status="200"}': 2,
        "repro_serving_artifact_version": 1,
        "repro_trace_started_total": issued,
    }
    for series, minimum in checks.items():
        if samples.get(series, 0) < minimum:
            raise SystemExit(
                f"{series} = {samples.get(series)!r}, expected >= {minimum}"
            )
    print(
        f"metrics smoke: ok — {len(metrics)} series, "
        f"{len(samples)} samples, all required series present"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
