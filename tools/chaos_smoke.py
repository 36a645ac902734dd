#!/usr/bin/env python
"""CI chaos smoke: serve under injected faults, prove graceful degradation.

End-to-end over a throwaway artifact store with the ``REPRO_CHAOS``
fault-injection flag armed:

1. publish a tiny synthetic predictor and boot a real
   :class:`~repro.serving.aio.AsyncLinkPredictionServer` on a free port;
2. hammer ``/v1/topk`` and fail unless **every** response — success or
   injected failure — is valid JSON with the status/request-id error
   contract (an unhandled traceback or non-JSON 500 fails the run);
3. publish a corrupt second version and fail unless reloads reject it
   and queries keep answering from the stale-but-valid artifact;
4. drive reloads until the reload circuit breaker trips, then check
   ``/readyz`` reports not-ready while ``/healthz`` stays live;
5. scrape ``/metrics`` and fail unless the reliability series
   (retries, breaker state, shed/degraded counters) are exposed;
6. **streaming leg** — run a full ingest→WAL→warm-refit→publish→hot-swap
   cycle with the ``streaming.wal.*`` sites armed: the live state after
   the last tick must be the fold of exactly the acknowledged deltas,
   every acknowledged delta must survive a simulated crash
   (digest-identical recovery), at least one version must publish,
   forcing the reload breaker open must switch answers to the degraded
   common-neighbor tier, and the HTTP surface must never 5xx outside
   injected sites.

Run from the repo root::

    REPRO_CHAOS=1 REPRO_CHAOS_SEED=1234 PYTHONPATH=src python tools/chaos_smoke.py
"""

from __future__ import annotations

import json
import sys
import tempfile
import urllib.error
import urllib.request

import numpy as np

from repro.models.persistence import FrozenPredictor
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import Tracer
from repro.reliability.faults import GLOBAL_INJECTOR, configure_from_env
from repro.serving.aio import AsyncLinkPredictionServer
from repro.serving.artifacts import ArtifactStore
from repro.serving.service import LinkPredictionService

N_USERS = 32
N_REQUESTS = 80

REQUIRED_RELIABILITY_SERIES = (
    "repro_reliability_breaker_state",
    "repro_reliability_retries_total",
    "repro_serving_reload_failure_total",
)


def _get(base, path):
    """GET returning (status, parsed JSON); non-JSON error bodies abort."""
    try:
        with urllib.request.urlopen(f"{base}{path}", timeout=10) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as exc:
        body = exc.read().decode("utf-8")
        try:
            payload = json.loads(body)
        except ValueError:
            raise SystemExit(
                f"{path}: HTTP {exc.code} body is not JSON: {body[:200]!r}"
            )
        if payload.get("status") != exc.code or not payload.get("request_id"):
            raise SystemExit(
                f"{path}: error body violates the contract: {payload!r}"
            )
        return exc.code, payload


def main() -> int:
    armed = configure_from_env()
    if not armed:
        raise SystemExit(
            "chaos smoke needs REPRO_CHAOS=1 (no fault sites are armed)"
        )
    print(f"chaos smoke: faults armed at {', '.join(sorted(armed))}")

    rng = np.random.default_rng(7)
    scores = rng.normal(size=(N_USERS, N_USERS))
    with tempfile.TemporaryDirectory() as tmp:
        store = ArtifactStore(tmp)
        # The injector is process-global, so this very load already runs
        # under chaos — the service's load retry policy absorbs it.
        store.publish(
            FrozenPredictor((scores + scores.T) / 2, {"name": "chaos-smoke"})
        )
        # Head sampling at rate 0: the only way a trace can commit is the
        # always-capture-on-error promotion, which step 2 asserts below.
        registry = MetricsRegistry()
        tracer = Tracer(registry, default_rate=0.0)
        service = LinkPredictionService(
            store, tracer=tracer, registry=registry
        )
        server = AsyncLinkPredictionServer(
            service, port=0, request_deadline_s=10.0
        ).start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            statuses = []
            for i in range(N_REQUESTS):
                status, payload = _get(base, f"/v1/topk?user={i % N_USERS}&k=5")
                statuses.append(status)
                if status == 200 and len(payload["candidates"]) != 5:
                    raise SystemExit(f"bad 200 payload: {payload!r}")
            oks = sum(1 for s in statuses if s == 200)
            errors = len(statuses) - oks
            if oks == 0:
                raise SystemExit("chaos took the service fully down")
            print(
                f"chaos smoke: {oks}/{len(statuses)} served, "
                f"{errors} clean JSON failures"
            )

            # Sampling is 0: every committed trace must be an errored
            # one, and every 5xx answered above must have committed one
            # — the always-capture-on-error promise under live faults,
            # even though each request crossed the event-loop → executor
            # hop.
            server_errors = sum(1 for s in statuses if s >= 500)
            committed = tracer.finished()
            not_errored = [t for t in committed if not t.error]
            if not_errored:
                raise SystemExit(
                    f"rate-0 tracer committed {len(not_errored)} "
                    "clean traces"
                )
            if len(committed) != server_errors:
                raise SystemExit(
                    f"{server_errors} 5xx answers but "
                    f"{len(committed)} error traces committed"
                )
            if any(not list(t.spans()) for t in committed):
                raise SystemExit("error trace committed without spans")
            print(
                f"chaos smoke: all {server_errors} 5xx answers captured "
                "as error traces (sampling rate 0)"
            )

            # A corrupt publish must never replace the serving artifact.
            import os

            version = store.publish(
                FrozenPredictor((scores + scores.T) / 2, {"name": "bad"})
            )
            with open(
                os.path.join(store.path(version), "score_matrix.npy"), "wb"
            ) as handle:
                handle.write(b"corrupted beyond repair")
            served_version = service.version
            for _ in range(8):  # enough failures to trip the reload breaker
                service.reload()
            if service.version != served_version:
                raise SystemExit("service swapped to a corrupt artifact")
            status, _ = _get(base, f"/v1/topk?user=1&k=5")
            if status not in (200, 500):
                raise SystemExit(f"stale serve answered {status}")
            print(
                f"chaos smoke: corrupt v{version} rejected, "
                f"still serving v{served_version} "
                f"(breaker {service.reload_breaker.state})"
            )

            # The probes below check the service's own state, not fault
            # handling (step 2 covered that), so an injected 500 there
            # would fail the smoke on the fault RNG alone.
            GLOBAL_INJECTOR.disarm("serving.request")
            status, payload = _get(base, "/readyz")
            if status not in (200, 503):
                raise SystemExit(f"/readyz answered {status}")
            health_status, health = _get(base, "/healthz")
            if health_status != 200 or health.get("status") != "ok":
                raise SystemExit(f"/healthz degraded: {health!r}")

            with urllib.request.urlopen(f"{base}/metrics", timeout=10) as r:
                text = r.read().decode("utf-8")
        finally:
            GLOBAL_INJECTOR.reset()
            server.shutdown()
            server.server_close()

    missing = [s for s in REQUIRED_RELIABILITY_SERIES if s not in text]
    if missing:
        raise SystemExit(f"missing reliability series on /metrics: {missing}")
    print("chaos smoke: ok — degradation clean, reliability series exposed")
    _streaming_leg()
    return 0


def _streaming_leg() -> None:
    """Ingest → WAL → warm-refit → publish → hot-swap under armed faults."""
    from repro.exceptions import ReproError
    from repro.reliability.breaker import CircuitBreaker
    from repro.streaming import StreamState, StreamingPipeline, link_add
    from repro.streaming.refit import WarmRefitter

    armed = configure_from_env()  # the main leg's finally disarmed them
    n_users = 16
    n_deltas = 120
    rng = np.random.default_rng(4321)
    with tempfile.TemporaryDirectory() as tmp:
        import os

        store = ArtifactStore(os.path.join(tmp, "store"))
        pipeline = StreamingPipeline(
            os.path.join(tmp, "stream"),
            n_users=n_users,
            store=store,
            refitter=WarmRefitter(inner_iterations=5, outer_iterations=2),
            snapshot_every=3,
        )
        oracle = StreamState(n_users)
        injected_failures = 0
        for index in range(n_deltas):
            u = int(rng.integers(0, n_users - 1))
            v = int(rng.integers(u + 1, n_users))
            delta = link_add(u, v, float(rng.integers(1, 4)))
            for _ in range(6):  # at-least-once producer retries
                try:
                    seq = pipeline.submit(delta)
                except (ReproError, OSError):
                    injected_failures += 1
                    continue
                oracle.apply(seq, delta)
                break
            else:
                raise SystemExit(
                    "submit failed 6 straight times at 10% fault rate"
                )
            if (index + 1) % 40 == 0:
                pipeline.tick()
        pipeline.tick()
        if pipeline.publishes < 1:
            raise SystemExit(
                "streaming leg never published a version under chaos "
                f"(last error: {pipeline.last_refit_error})"
            )
        # The live state was folded through cursor-resumed replays while
        # torn writes and failed fsyncs hit the log: it must already be
        # the fold of exactly the acked deltas.
        if pipeline.state.digest() != oracle.digest():
            raise SystemExit(
                "live stream state diverged from the acked oracle: "
                f"{pipeline.stats()}"
            )
        # Crash: abandon the in-memory pipeline, recover from disk, and
        # demand the digest of an uninterrupted apply of every ack.
        pipeline.close()
        recovered = StreamingPipeline(os.path.join(tmp, "stream"), n_users=n_users)
        if recovered.state.digest() != oracle.digest():
            raise SystemExit(
                "recovered stream state diverged from the acked oracle: "
                f"{recovered.stats()}"
            )
        recovered.close()
        print(
            f"chaos smoke: streaming leg acked {oracle.applied_seq} deltas "
            f"({injected_failures} injected WAL faults retried), "
            f"{pipeline.publishes} publishes, live and recovered states "
            "digest-identical"
        )

        # Degraded tier: trip the reload breaker past its threshold and
        # demand the common-neighbor tier answers (and exits afterwards).
        GLOBAL_INJECTOR.reset()
        registry = MetricsRegistry()
        clock = {"t": 0.0}  # injectable so recovery needs no real sleep
        service = LinkPredictionService(
            store,
            registry=registry,
            enable_degraded_tier=True,
            reload_breaker=CircuitBreaker(
                "reload", failure_threshold=3, recovery_timeout=1.0,
                registry=registry, clock=lambda: clock["t"],
            ),
        )
        server = AsyncLinkPredictionServer(
            service, port=0, request_deadline_s=10.0
        ).start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            GLOBAL_INJECTOR.arm("serving.reload", probability=1.0)
            for _ in range(4):
                service.reload()
            if not service.degraded_active:
                raise SystemExit(
                    "reload breaker open but degraded tier not engaged"
                )
            status, payload = _get(base, "/v1/topk?user=0&k=3")
            if status != 200:
                raise SystemExit(
                    f"degraded tier answered {status}, wanted 200"
                )
            if "serving_degraded_mode 1" not in service.metrics_text():
                raise SystemExit("serving.degraded_mode gauge not raised")
            GLOBAL_INJECTOR.reset()
            clock["t"] += 10.0  # past recovery_timeout: next probe admitted
            service.reload()  # recovery probe passes; breaker closes
            if service.degraded_active:
                raise SystemExit("degraded tier failed to exit after recovery")
            status, _ = _get(base, "/v1/topk?user=0&k=3")
            if status != 200:
                raise SystemExit(f"post-recovery query answered {status}")
        finally:
            GLOBAL_INJECTOR.reset()
            server.shutdown()
            server.server_close()
        print(
            "chaos smoke: streaming leg ok — degraded tier engaged past "
            "breaker threshold, exited after recovery, no 5xx outside "
            f"injected sites (armed: {', '.join(sorted(armed))})"
        )


if __name__ == "__main__":
    sys.exit(main())
