"""Micro-batching front-end: coalesce concurrent queries into one pass.

Under concurrent load, many independent ``top_k`` calls each pay a full
row-partition; stacking them into a single
:meth:`~repro.serving.service.LinkPredictionService.batch_top_k_mixed`
call amortizes the numpy dispatch and partitions all rows in one
vectorized pass.  :class:`MicroBatcher` is *work-conserving*: callers
block on :meth:`submit`, and a single worker thread blocks only for the
first queued request, then takes whatever else is already queued (up to
``max_batch``) without waiting for more, scores it in one pass and wakes
the waiters.  An idle worker therefore answers a lone request at once,
and batches form under load from the requests that queue up while a pass
runs.  Each request is validated on its own, so one bad request fails
only itself, never the batch it was queued with.  Batch sizes and
coalescing counters are recorded on the service's tracer
(``batcher.batches``, ``batcher.requests``, and the ``batcher.batch_size``
metric stream).
"""

from __future__ import annotations

import queue
import threading
import time
from typing import List, Optional

from repro.exceptions import (
    ConfigurationError,
    DeadlineExceededError,
    UnknownNodeError,
)
from repro.observability.logging import current_request_id, get_logger
from repro.observability.metrics import BATCH_SIZE_BUCKETS
from repro.observability.propagation import current_trace
from repro.serving.service import LinkPredictionService, Ranking
from repro.utils.validation import check_integer

_log = get_logger("repro.serving.batcher")


class _Pending:
    """One waiting request: inputs, a completion event, and a result slot.

    The submitting thread's request id *and* active trace carrier are
    captured at construction so the worker thread — which runs outside
    any request context — can still attribute the batch's work to the
    HTTP requests it coalesced, and graft a ``batcher.batch`` span back
    onto each recording trace before waking its waiter.
    """

    __slots__ = (
        "user", "k", "event", "result", "error", "request_id", "trace"
    )

    def __init__(self, user: int, k: int):
        self.user = user
        self.k = k
        self.event = threading.Event()
        self.result: Optional[Ranking] = None
        self.error: Optional[BaseException] = None
        self.request_id = current_request_id()
        self.trace = current_trace()


class MicroBatcher:
    """Queue-backed batcher over a :class:`LinkPredictionService`.

    Parameters
    ----------
    service:
        The service whose ``batch_top_k_mixed`` executes the coalesced
        work and whose ``check_user`` validates each queued request.
    max_batch:
        Largest number of requests merged into one scoring pass.  The
        worker never waits for a batch to fill: a pass takes the requests
        queued when it starts, at most this many.

    Examples
    --------
    Use as a context manager so the worker thread is always joined::

        with MicroBatcher(service) as batcher:
            ranking = batcher.submit(user=0, k=10)
    """

    def __init__(
        self,
        service: LinkPredictionService,
        max_batch: int = 64,
    ):
        self.service = service
        self.max_batch = check_integer(max_batch, "max_batch", minimum=1)
        self._queue: "queue.Queue[_Pending]" = queue.Queue()
        self._worker: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        registry = service.registry
        self._m_batches = registry.counter(
            "serving.batcher.batches", help="Coalesced scoring passes."
        )
        self._m_requests = registry.counter(
            "serving.batcher.requests", help="Requests routed via the batcher."
        )
        self._m_batch_size = registry.histogram(
            "serving.batcher.batch_size",
            help="Requests coalesced per batch.",
            buckets=BATCH_SIZE_BUCKETS,
        )

    # -- lifecycle ------------------------------------------------------
    @property
    def running(self) -> bool:
        """Whether the worker thread is alive."""
        return self._worker is not None and self._worker.is_alive()

    def start(self) -> "MicroBatcher":
        """Launch the worker thread (idempotent); returns ``self``."""
        if not self.running:
            self._stopping.clear()
            self._worker = threading.Thread(
                target=self._run, name="repro-serving-batcher", daemon=True
            )
            self._worker.start()
        return self

    def stop(self) -> None:
        """Stop the worker, draining already-queued requests first."""
        if self._worker is None:
            return
        self._stopping.set()
        self._worker.join()
        self._worker = None

    def flush(self, timeout: float = 5.0) -> bool:
        """Block until every queued request has been handed to a batch.

        Used by graceful drain: the front end stops admitting work, then
        flushes so no waiter is left blocked on an abandoned queue entry.
        Returns ``True`` when the queue emptied within ``timeout``
        seconds, ``False`` otherwise (the worker may be wedged).
        """
        deadline = time.perf_counter() + max(0.0, timeout)
        while not self._queue.empty():
            if not self.running or time.perf_counter() >= deadline:
                return self._queue.empty()
            time.sleep(0.001)
        return True

    def __enter__(self) -> "MicroBatcher":
        """Start on entry."""
        return self.start()

    def __exit__(self, *exc_info) -> None:
        """Stop (and join the worker) on exit."""
        self.stop()

    # -- request path ---------------------------------------------------
    def submit(self, user: int, k: int = 10, timeout: float = 30.0) -> Ranking:
        """Enqueue one top-k query and block until its batch completes.

        ``timeout`` is the caller's remaining deadline budget; an answer
        that does not arrive in time raises
        :class:`~repro.exceptions.DeadlineExceededError`, which the HTTP
        layer maps to a 503.
        """
        if not self.running:
            raise ConfigurationError(
                "MicroBatcher is not running; call start() or use it as a "
                "context manager"
            )
        if timeout <= 0:
            raise DeadlineExceededError(
                "request deadline exhausted before the query was batched"
            )
        pending = _Pending(int(user), int(k))
        self._queue.put(pending)
        if not pending.event.wait(timeout):
            raise DeadlineExceededError(
                f"batched query timed out after {timeout}s"
            )
        if pending.error is not None:
            raise pending.error
        return pending.result

    # -- worker ---------------------------------------------------------
    def _run(self) -> None:
        """Worker loop: collect a batch, execute it, wake the waiters."""
        while True:
            batch = self._collect()
            if not batch:
                if self._stopping.is_set() and self._queue.empty():
                    return
                continue
            self._execute(batch)

    def _collect(self) -> List[_Pending]:
        """Block for the first request, then take what is already queued.

        Never waits for more arrivals: waiting could only delay the
        requests in hand, and whatever arrives during the pass forms the
        next batch.
        """
        try:
            first = self._queue.get(timeout=0.05)
        except queue.Empty:
            return []
        batch = [first]
        while len(batch) < self.max_batch:
            try:
                batch.append(self._queue.get_nowait())
            except queue.Empty:
                break
        return batch

    def _execute(self, batch: List[_Pending]) -> None:
        """Run one coalesced pass and distribute answers (or the error)."""
        tracer = self.service.tracer
        tracer.count("batcher.batches")
        tracer.count("batcher.requests", len(batch))
        tracer.metric("batcher.batch_size", len(batch))
        self._m_batches.inc()
        self._m_requests.inc(len(batch))
        self._m_batch_size.observe(len(batch))
        if _log.isEnabledFor(10):  # logging.DEBUG; avoid building the id list
            _log.debug(
                "executing coalesced batch",
                batch_size=len(batch),
                request_ids=[p.request_id for p in batch if p.request_id],
            )
        start = time.perf_counter()
        # Validate each request on its own before the shared pass, which
        # would otherwise reject the whole batch for one bad user or k.
        valid = []
        for pending in batch:
            try:
                check_integer(pending.k, "k", minimum=1)
                self.service.check_user(pending.user)
            except (ConfigurationError, UnknownNodeError) as exc:
                self._fail(pending, exc, start, len(batch))
            else:
                valid.append(pending)
        if not valid:
            return
        # One true coalesced pass: mixed-k requests share a single
        # scoring pass at the batch's largest k — every request's answer
        # is a prefix of its top-max_k list (same descending order, same
        # tie-break), so per-request trimming is exact and happens inside
        # the service before any oversized list is materialized.  Grouping
        # by k here used to issue one scoring pass per distinct k, which
        # under mixed load made the batcher *slower* than sequential
        # queries.
        try:
            rankings = self.service.batch_top_k_mixed(
                [pending.user for pending in valid],
                [pending.k for pending in valid],
            )
        except BaseException as exc:  # propagate to every waiter
            for pending in valid:
                self._fail(pending, exc, start, len(batch))
            return
        for pending, ranking in zip(valid, rankings):
            self._graft_span(pending, start, len(batch))
            pending.result = ranking
            pending.event.set()

    @classmethod
    def _fail(
        cls,
        pending: _Pending,
        exc: BaseException,
        start: float,
        batch_size: int,
    ) -> None:
        """Hand ``exc`` to one waiter, marking its trace as errored."""
        message = f"{type(exc).__name__}: {exc}"
        cls._graft_span(pending, start, batch_size, error=message)
        pending.error = exc
        pending.event.set()

    @staticmethod
    def _graft_span(
        pending: _Pending,
        start: float,
        batch_size: int,
        error: Optional[str] = None,
    ) -> None:
        """Attach the batch pass as a child span of the request's trace.

        Runs on the worker thread *before* ``event.set()``, so the
        submitting thread never races the graft; recording traces end up
        with one ``batcher.batch`` span carrying the coalesced batch
        size — the cross-thread half of the stitched span tree.
        """
        trace = pending.trace
        if trace is None or not getattr(trace, "is_recording", False):
            return
        if not (trace.sampled or error):
            return
        trace.add_span(
            "batcher.batch",
            time.perf_counter() - start,
            attrs={"batch_size": batch_size},
            error=error,
        )
        if error:
            trace.mark_error(error)
