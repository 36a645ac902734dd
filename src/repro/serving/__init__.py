"""Model serving: versioned artifacts + a low-latency top-k service.

The deployment half of the reproduction — everything a serving process
needs, and nothing from the training stack:

* :mod:`repro.serving.artifacts` — :class:`ArtifactStore`, the
  directory-per-version on-disk store with ``manifest.json`` checksums and
  integrity-validated ``publish``/``resolve_latest``/``load``;
* :mod:`repro.serving.service` — :class:`LinkPredictionService`, the one
  service for dense, factored and sharded artifacts, with
  ``score``/``top_k``/``batch_top_k`` and hot-swap ``reload()`` that falls
  back to the previous artifact when a new one fails validation;
* :mod:`repro.serving.candidates` — the per-artifact candidate sources
  the service ranks through;
* :mod:`repro.serving.cache` — the LRU :class:`RankingCache` with
  hit/miss/eviction counters;
* :mod:`repro.serving.batcher` — :class:`MicroBatcher`, coalescing
  concurrent queries into single vectorized scoring passes;
* :mod:`repro.serving.http` — :class:`EndpointRouter`, the
  transport-independent JSON endpoints (``/healthz``, ``/readyz``,
  ``/v1/topk``, ``/v1/score``, ``/v1/stats``) plus the Prometheus
  ``/metrics`` exposition, per-request deadlines and the
  exception→status ladder;
* :mod:`repro.serving.aio` — :class:`AsyncLinkPredictionServer`, the
  HTTP transport: keep-alive/pipelined parsing on one event loop,
  load shedding (``max_inflight``), scoring offloaded to a bounded
  worker pool, graceful SIGTERM drain.

Resilience (DESIGN.md §11): artifact reads are retried under a
:class:`~repro.reliability.RetryPolicy` and ``reload()`` sits behind a
:class:`~repro.reliability.CircuitBreaker` — a corrupt publish or a
flapping store degrades to stale-serving with ``/readyz`` flipping to 503,
never to an outage.  ``REPRO_CHAOS=1`` arms fault injection at the
``artifact.*``/``serving.*`` sites to rehearse exactly that.

Operate it from the command line::

    python -m repro.serving publish --store artifacts --scale 60 --seed 7
    python -m repro.serving inspect --store artifacts
    python -m repro.serving serve   --store artifacts --port 8080

Every request path is instrumented twice over: per-run spans/counters on a
:class:`repro.observability.Tracer`, and scrapeable series (route latency
histograms, cache and reload counters, batcher coalesce sizes) on a
:class:`repro.observability.MetricsRegistry` served from ``/metrics``,
with a request id propagated through every layer.  See DESIGN.md §8, §10
and §11.
"""

from repro.serving.aio import AsyncLinkPredictionServer
from repro.serving.artifacts import (
    MANIFEST_SCHEMA_VERSION,
    ArtifactStore,
    LoadedArtifact,
    file_sha256,
)
from repro.serving.batcher import MicroBatcher
from repro.serving.cache import RankingCache
from repro.serving.http import EndpointRouter
from repro.serving.service import LinkPredictionService

__all__ = [
    "ArtifactStore",
    "LoadedArtifact",
    "MANIFEST_SCHEMA_VERSION",
    "file_sha256",
    "LinkPredictionService",
    "RankingCache",
    "MicroBatcher",
    "EndpointRouter",
    "AsyncLinkPredictionServer",
]
