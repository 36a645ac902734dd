"""End-to-end chaos: a killed fit resumes exactly; serving never breaks.

Two acceptance scenarios of the reliability subsystem:

* a CCCP fit killed **mid-round** loses only in-flight work — resuming
  from the on-disk checkpoints reproduces the uninterrupted run's final
  objective to 1e-8;
* an HTTP endpoint with faults armed at every serving site keeps
  answering every request with either a correct payload, a stale-served
  answer, or a clean JSON 503/500 — never an unhandled error, with the
  degradation visible on ``/metrics``.
"""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.models.persistence import FrozenPredictor
from repro.optim.cccp import CCCPSolver
from repro.optim.convergence import ConvergenceCriterion
from repro.optim.forward_backward import ForwardBackwardSolver
from repro.optim.losses import SquaredFrobeniusLoss
from repro.optim.proximal import BoxProjection, L1Prox, TraceNormProx
from repro.reliability.checkpoints import CheckpointManager
from repro.reliability.faults import GLOBAL_INJECTOR
from repro.serving.aio import AsyncLinkPredictionServer
from repro.serving.service import LinkPredictionService


class _KillSwitch:
    """Transparent prox wrapper that counts applies on a shared budget.

    ``budget`` is a one-element list shared by all wrapped prox terms:
    counting up when ``kill_at`` is None, killing the process once the
    shared count passes ``kill_at`` otherwise.
    """

    def __init__(self, inner, budget, kill_at=None):
        self.inner = inner
        self.budget = budget
        self.kill_at = kill_at

    def value(self, matrix):
        return self.inner.value(matrix)

    def apply(self, matrix, step, tracer=None):
        self.budget[0] += 1
        if self.kill_at is not None and self.budget[0] > self.kill_at:
            raise KeyboardInterrupt("simulated kill -9 mid-round")
        return self.inner.apply(matrix, step, tracer=tracer)


def _problem(rng):
    adjacency = np.triu((rng.random((24, 24)) < 0.25).astype(float), 1)
    adjacency = adjacency + adjacency.T
    return adjacency


def _solver(prox_wrap=None):
    prox_terms = [TraceNormProx(0.4), L1Prox(0.02), BoxProjection(0.0, None)]
    if prox_wrap is not None:
        prox_terms = [prox_wrap(p) for p in prox_terms]
    return CCCPSolver(
        loss=None,  # set per call below
        prox_terms=prox_terms,
        inner_solver=ForwardBackwardSolver(
            step_size=0.05,
            criterion=ConvergenceCriterion(
                tolerance=1e-7, max_iterations=8
            ),
        ),
        outer_criterion=ConvergenceCriterion(
            tolerance=1e-6, max_iterations=10
        ),
    )


def _solve(adjacency, checkpoint=None, prox_wrap=None):
    solver = _solver(prox_wrap)
    solver.loss = SquaredFrobeniusLoss(adjacency)
    return solver.solve(adjacency, checkpoint=checkpoint)


class TestKilledFitResumes:
    def test_mid_round_kill_resumes_to_same_objective(self, rng, tmp_path):
        adjacency = _problem(rng)
        # Count prox applies in the uninterrupted run to place the kill
        # mid-trajectory regardless of how fast this problem converges.
        count = [0]
        uninterrupted = _solve(
            adjacency, prox_wrap=lambda p: _KillSwitch(p, count)
        )
        assert count[0] > 4  # enough work for a mid-run kill

        directory = str(tmp_path / "ckpt")
        killed = CheckpointManager(directory, keep=10)
        # Kill partway through a later round: some rounds are checkpointed,
        # the in-flight round's work is lost — exactly a kill -9.
        kill_count = [0]
        with pytest.raises(KeyboardInterrupt):
            _solve(
                adjacency,
                checkpoint=killed,
                prox_wrap=lambda p: _KillSwitch(
                    p, kill_count, kill_at=count[0] // 2
                ),
            )
        survivor = killed.latest()
        assert survivor is not None  # progress survived the kill

        resumed = _solve(
            adjacency, checkpoint=CheckpointManager(directory, keep=10)
        )
        assert resumed.resumed_from == survivor.round_index
        final_objective = lambda result: float(  # noqa: E731
            np.sum((result.solution - adjacency) ** 2)
        )
        assert final_objective(resumed) == pytest.approx(
            final_objective(uninterrupted), abs=1e-8
        )
        np.testing.assert_allclose(
            resumed.solution, uninterrupted.solution, atol=1e-8
        )
        assert list(resumed.round_norms) == list(uninterrupted.round_norms)


@pytest.fixture()
def chaos_endpoint(store):
    """A live server with faults armed at every serving-side site."""
    service = LinkPredictionService(store, cache_size=4)
    server = AsyncLinkPredictionServer(
        service, port=0, max_inflight=32, request_deadline_s=5.0
    ).start()
    GLOBAL_INJECTOR._seed = 1234
    GLOBAL_INJECTOR.arm("serving.request", probability=0.15)
    GLOBAL_INJECTOR.arm("serving.reload", probability=0.5)
    GLOBAL_INJECTOR.arm("artifact.read", probability=0.3)
    GLOBAL_INJECTOR.arm("artifact.slow_read", probability=0.3, delay=0.002)
    yield f"http://127.0.0.1:{server.server_address[1]}", service
    GLOBAL_INJECTOR.reset()
    server.shutdown()
    server.server_close()


def _get(url):
    """GET returning (status, parsed-JSON body) for 2xx and errors alike."""
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as exc:
        body = exc.read().decode("utf-8")
        return exc.code, json.loads(body)  # every error body must be JSON


class TestServingUnderChaos:
    def test_every_response_is_json_and_never_unhandled(self, chaos_endpoint):
        base, service = chaos_endpoint
        statuses = []
        for i in range(60):
            status, payload = _get(f"{base}/v1/topk?user={i % 16}&k=3")
            statuses.append(status)
            if status == 200:
                assert len(payload["candidates"]) <= 3
            else:
                # Injected request faults surface as structured JSON
                # errors carrying the request id — never a raw traceback.
                assert payload["status"] == status
                assert payload["request_id"]
                assert "injected" in payload["error"]
        assert 200 in statuses  # chaos at 15% must not take the service down
        assert any(s >= 500 for s in statuses)  # ...and faults did fire

    def test_reload_chaos_degrades_to_stale_serving(self, chaos_endpoint):
        base, service = chaos_endpoint
        served_before = service.version
        for _ in range(12):
            service.reload()  # injected failures: breaker may trip
        assert service.version == served_before  # stale artifact kept
        status, payload = _get(f"{base}/v1/topk?user=3&k=3")
        assert status in (200, 500)  # request-site faults may still fire
        # /readyz reports the breaker verdict either way, as JSON.
        status, payload = _get(f"{base}/readyz")
        assert status in (200, 503)
        assert payload.get("reload_breaker") in ("closed", "open", "half_open")

    def test_degradation_is_visible_on_metrics(self, chaos_endpoint):
        base, service = chaos_endpoint
        for _ in range(10):
            service.reload()
        for i in range(20):
            _get(f"{base}/v1/topk?user={i % 16}&k=3")
        with urllib.request.urlopen(f"{base}/metrics", timeout=10) as resp:
            text = resp.read().decode("utf-8")
        assert "reliability_breaker_state" in text
        assert "reliability_retries_total" in text
        assert "serving_reload_failure_total" in text


class TestLoadShedding:
    def test_excess_inflight_sheds_with_503(self, store, monkeypatch):
        service = LinkPredictionService(store)
        # A gated top_k holds the single in-flight slot until released.
        release = threading.Event()
        entered = threading.Event()
        original = service.top_k

        def gated_top_k(user, k):
            entered.set()
            release.wait(5.0)
            return original(user, k)

        monkeypatch.setattr(service, "top_k", gated_top_k)
        server = AsyncLinkPredictionServer(
            service, port=0, max_inflight=1
        ).start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        held = []
        holder = threading.Thread(
            target=lambda: held.append(_get(f"{base}/v1/topk?user=0&k=3")),
            daemon=True,
        )
        try:
            holder.start()
            assert entered.wait(5.0)
            status, payload = _get(f"{base}/v1/topk?user=1&k=3")
            assert status == 503
            assert "overloaded" in payload["error"]
            assert payload["request_id"]
            release.set()
            holder.join(5.0)
            assert not holder.is_alive()
            assert held[0][0] == 200
            status, _ = _get(f"{base}/v1/topk?user=1&k=3")
            assert status == 200
            assert (
                "reliability_shed_requests_total 1"
                in service.registry.render()
            )
        finally:
            release.set()
            server.shutdown()
            server.server_close()


class TestStaleServeOnCorruptPublish:
    def test_corrupt_new_version_keeps_old_answers(self, store, rng):
        import os

        service = LinkPredictionService(store)
        before = service.top_k(2, k=3)
        scores = rng.normal(size=(16, 16))
        version = store.publish(FrozenPredictor((scores + scores.T) / 2.0))
        model_path = os.path.join(store.path(version), "model.npz")
        with open(model_path, "wb") as handle:
            handle.write(b"corrupted beyond repair")
        assert service.reload() is False
        assert service.version == 1
        assert service.top_k(2, k=3) == before
        assert "integrity" in service.stats()["last_reload_error"]
