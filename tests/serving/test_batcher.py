"""Tests for the micro-batcher: correctness under concurrency, coalescing."""

import math
import queue
import threading
import time

import pytest

from repro.exceptions import ConfigurationError, UnknownNodeError
from repro.serving.batcher import MicroBatcher


class _GatedPasses:
    """Stands in for ``service.batch_top_k_mixed`` and holds the first pass.

    While the worker is held inside its first pass, later submits queue up
    behind it, so which requests share a pass is decided by the test, not
    by thread timing.  ``passes`` records the users of every pass.
    """

    def __init__(self, service, monkeypatch):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.passes = []
        self._original = service.batch_top_k_mixed
        monkeypatch.setattr(service, "batch_top_k_mixed", self)

    def __call__(self, users, ks):
        self.passes.append(list(users))
        if len(self.passes) == 1:
            self.entered.set()
            assert self.release.wait(10.0)
        return self._original(users, ks)


def _submit_behind_gate(batcher, gate, requests):
    """Hold the worker on ``gate``, queue ``requests`` behind it, release.

    Returns ``(results, errors)`` keyed by each request's index.
    """
    results, errors = {}, {}

    def query(slot, user, k):
        try:
            results[slot] = batcher.submit(user, k)
        except Exception as exc:
            errors[slot] = exc

    holder = threading.Thread(target=query, args=("hold", 0, 1))
    holder.start()
    assert gate.entered.wait(10.0)
    threads = [
        threading.Thread(target=query, args=(slot, user, k))
        for slot, (user, k) in enumerate(requests)
    ]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + 10.0
    while batcher._queue.qsize() < len(requests):
        assert time.monotonic() < deadline, "requests never queued"
        time.sleep(0.001)
    gate.release.set()
    for thread in [holder, *threads]:
        thread.join(10.0)
        assert not thread.is_alive()
    assert "hold" in results
    return results, errors


class _RecordingQueue(queue.Queue):
    """Queue double logging every ``get``: its outcome and whether it blocked."""

    def __init__(self):
        super().__init__()
        self.log = []

    def get(self, block=True, timeout=None):
        try:
            item = super().get(block, timeout)
        except queue.Empty:
            self.log.append(("empty", block))
            raise
        self.log.append(("item", block))
        return item


class TestLifecycle:
    def test_context_manager_starts_and_stops(self, service):
        with MicroBatcher(service) as batcher:
            assert batcher.running
        assert not batcher.running

    def test_submit_before_start_rejected(self, service):
        batcher = MicroBatcher(service)
        with pytest.raises(ConfigurationError, match="not running"):
            batcher.submit(0)

    def test_start_idempotent(self, service):
        batcher = MicroBatcher(service).start()
        try:
            worker = batcher._worker
            batcher.start()
            assert batcher._worker is worker
        finally:
            batcher.stop()

    def test_invalid_parameters(self, service):
        with pytest.raises(ConfigurationError):
            MicroBatcher(service, max_batch=0)


class TestCorrectness:
    def test_single_submit_matches_direct(self, service):
        expected = service.top_k(5, k=4)
        with MicroBatcher(service) as batcher:
            assert batcher.submit(5, k=4) == expected

    def test_concurrent_submits_match_direct(self, service):
        users = list(range(service.n_users)) * 3
        expected = {user: service.top_k(user, k=5) for user in set(users)}
        results = {}
        errors = []

        def query(slot, user):
            try:
                results[slot] = (user, batcher.submit(user, k=5))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        with MicroBatcher(service, max_batch=16) as batcher:
            threads = [
                threading.Thread(target=query, args=(slot, user))
                for slot, user in enumerate(users)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        assert len(results) == len(users)
        for user, ranking in results.values():
            assert ranking == expected[user]

    def test_mixed_k_answered_separately(self, service):
        with MicroBatcher(service) as batcher:
            small = batcher.submit(1, k=2)
            large = batcher.submit(1, k=8)
        assert len(small) == 2
        assert len(large) == 8
        assert small == large[:2]

    def test_bad_request_fails_alone(self, service, monkeypatch):
        """An invalid user or k queued beside valid requests fails only itself."""
        requests = [(2, 3), (10_000, 3), (0, 0), (5, 4)]
        expected = {0: service.top_k(2, 3), 3: service.top_k(5, 4)}
        gate = _GatedPasses(service, monkeypatch)
        with MicroBatcher(service) as batcher:
            results, errors = _submit_behind_gate(batcher, gate, requests)
        assert {slot: results[slot] for slot in (0, 3)} == expected
        assert isinstance(errors[1], UnknownNodeError)
        assert isinstance(errors[2], ConfigurationError)
        assert set(errors) == {1, 2}
        # The valid requests still share one scoring pass.
        assert gate.passes[1:] == [[2, 5]]

    def test_errors_propagate_to_caller(self, service):
        with MicroBatcher(service) as batcher:
            with pytest.raises(UnknownNodeError):
                batcher.submit(10_000, k=3)
            # The worker survives a poisoned batch.
            assert batcher.submit(0, k=3) == service.top_k(0, k=3)


class TestCoalescing:
    def test_batches_counted_on_tracer(self, service):
        with MicroBatcher(service) as batcher:
            batcher.submit(0, k=3)
        counters = service.tracer.counters
        assert counters["batcher.batches"] >= 1
        assert counters["batcher.requests"] >= 1
        assert service.tracer.metrics["batcher.batch_size"]

    def test_concurrent_load_coalesces(self, service, monkeypatch):
        """Requests queued during a pass are answered by one next pass."""
        n_requests = 40
        gate = _GatedPasses(service, monkeypatch)
        with MicroBatcher(service, max_batch=64) as batcher:
            results, errors = _submit_behind_gate(
                batcher,
                gate,
                [(i % service.n_users, 4) for i in range(n_requests)],
            )
        assert not errors
        assert len(results) == n_requests + 1
        assert [len(users) for users in gate.passes] == [1, n_requests]
        counters = service.tracer.counters
        assert counters["batcher.requests"] == n_requests + 1
        assert counters["batcher.batches"] == 2

    def test_queue_deeper_than_max_batch_splits_passes(
        self, service, monkeypatch
    ):
        n_requests, max_batch = 20, 8
        gate = _GatedPasses(service, monkeypatch)
        with MicroBatcher(service, max_batch=max_batch) as batcher:
            results, errors = _submit_behind_gate(
                batcher,
                gate,
                [(i % service.n_users, 3) for i in range(n_requests)],
            )
        assert not errors
        assert len(results) == n_requests + 1
        # The held pass, then ceil(20 / 8) = 3 full-or-remainder passes.
        assert len(gate.passes) == 1 + math.ceil(n_requests / max_batch)
        assert [len(users) for users in gate.passes[1:]] == [8, 8, 4]

    def test_mixed_k_batch_is_one_scoring_pass(self, service, monkeypatch):
        """Distinct k values in one batch must not split the pass per k."""
        requests = list(zip(range(4), (2, 4, 6, 8)))
        expected = [service.top_k(user, k) for user, k in requests]
        service.cache.invalidate()
        gate = _GatedPasses(service, monkeypatch)
        with MicroBatcher(service, max_batch=8) as batcher:
            results, errors = _submit_behind_gate(batcher, gate, requests)
        assert not errors
        assert [results[slot] for slot in range(4)] == expected
        # All four mixed-k requests coalesced into a single pass.
        assert gate.passes[1:] == [[0, 1, 2, 3]]

    def test_idle_worker_does_not_wait_for_company(self, service, monkeypatch):
        """A lone request is scored with no timed wait for more arrivals."""
        batcher = MicroBatcher(service)
        recording = batcher._queue = _RecordingQueue()
        execute = batcher._execute

        def logged_execute(batch):
            recording.log.append(("execute", None))
            execute(batch)

        monkeypatch.setattr(batcher, "_execute", logged_execute)
        with batcher:
            ranking = batcher.submit(3, k=4)
        assert ranking == service.top_k(3, k=4)
        log = recording.log
        first = log.index(("item", True))
        collected = log[first + 1:log.index(("execute", None))]
        assert collected
        assert not any(block for _, block in collected)


class TestTraceGrafting:
    """The worker grafts a batcher.batch span back onto request traces."""

    def test_sampled_trace_gains_batch_span(self, service):
        from repro.observability.sampling import SamplingTracer

        tracer = SamplingTracer(
            service.registry, default_rate=1.0, cells=service.cells
        )
        service.tracer = tracer
        with MicroBatcher(service) as batcher:
            with tracer.trace("topk") as trace:
                batcher.submit(user=0, k=3)
        batch_spans = [
            span for span in trace.spans() if span.name == "batcher.batch"
        ]
        assert len(batch_spans) == 1
        assert batch_spans[0].attrs["batch_size"] >= 1
        assert batch_spans[0].duration > 0.0

    def test_batch_failure_promotes_error_trace(self, service):
        from repro.observability.sampling import SamplingTracer

        tracer = SamplingTracer(
            service.registry, default_rate=0.0, cells=service.cells
        )
        service.tracer = tracer
        with MicroBatcher(service) as batcher:
            with pytest.raises(UnknownNodeError):
                with tracer.trace("topk"):
                    batcher.submit(user=10_000, k=3)
        finished = tracer.finished()
        assert len(finished) == 1
        assert finished[0].error
        assert any(
            span.name == "batcher.batch" and span.error
            for span in finished[0].spans()
        )

    def test_unsampled_clean_submit_grafts_nothing(self, service):
        from repro.observability.sampling import SamplingTracer

        tracer = SamplingTracer(
            service.registry, default_rate=0.0, cells=service.cells
        )
        service.tracer = tracer
        with MicroBatcher(service) as batcher:
            with tracer.trace("topk"):
                batcher.submit(user=0, k=3)
        assert tracer.finished() == []
