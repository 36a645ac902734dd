"""Asyncio front end: event-loop parsing, worker-pool scoring.

The HTTP transport of the serving layer.  It keeps the *protocol* on a
single event loop — accept, HTTP/1.1 parse (keep-alive and pipelined
requests included), framing, shedding — and offloads only the *scoring*
to a bounded :class:`~concurrent.futures.ThreadPoolExecutor` via
``loop.run_in_executor``, so thousands of keep-alive clients cost no
thread each.  The endpoint logic is not here: the executor worker calls
:class:`~repro.serving.http.EndpointRouter`, which owns the eight
endpoints, the exception→status ladder, per-request deadlines and the
HTTP metric families.

This module is also the **trace edge**.  Each request gets a request id
(an incoming ``X-Request-Id`` header, or a fresh one) bound into the
logging context, so records from every layer below carry it; the
response echoes it as ``X-Request-Id``.  An incoming
``X-Trace-Context`` header (or a freshly minted
:class:`~repro.observability.propagation.TraceContext`) parents one
request trace on the service's tracer — head-sampled under a
:class:`~repro.observability.sampling.SamplingTracer`, with any 5xx
promoting it to an always-captured error trace — and is echoed back as
``X-Trace-Context``.

Division of labour per request:

* **event loop** — read one framed request (``readuntil`` the blank
  line, ``readexactly`` the body), honour ``max_inflight`` with a plain
  counter (no lock: the loop is single-threaded), build the response
  bytes, write them back, keep the connection for the next request;
* **worker thread** — bind the request id into the logging context,
  open the request trace (context vars do not cross ``run_in_executor``,
  so the worker opens it itself), graft a ``serving.executor_hop`` span
  carrying the queue wait, run ``EndpointRouter.dispatch``, observe the
  latency sample *before* returning so a client that reads the response
  and immediately scrapes ``/metrics`` finds it.

Observability adds three series on top of the shared HTTP families:
``serving.loop_lag_seconds`` (a gauge sampled by a watchdog coroutine —
the canonical "is the loop blocked" signal), ``serving.executor.queue_depth``
(requests admitted but not yet answered) and
``serving.executor.wait_seconds`` (time a request sat between admission
and a worker picking it up).

Graceful drain (``shutdown()`` or SIGTERM wired by the CLI): stop
accepting, let in-flight requests finish within the deadline budget,
close idle keep-alive connections, flush the
:class:`~repro.serving.batcher.MicroBatcher`, then reap the executor.
Streaming publishes are not interrupted — see
:meth:`repro.streaming.pipeline.StreamingPipeline.close`.

Only the standard library is used.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http import HTTPStatus
from typing import Dict, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from repro.observability.logging import (
    get_logger,
    new_request_id,
    request_context,
)
from repro.observability.propagation import TraceContext
from repro.serving.batcher import MicroBatcher
from repro.serving.http import ROUTE_LABELS, EndpointRouter
from repro.serving.service import LinkPredictionService

# Access records land on the HTTP layer's logger name: downstream log
# routing (and the observability tests) key on it.
_access_log = get_logger("repro.serving.http")
_log = get_logger("repro.serving.aio")

MAX_HEADER_BYTES = 64 * 1024
"""Upper bound on one request head (request line + headers)."""

MAX_BODY_BYTES = 8 * 1024 * 1024
"""Upper bound on one request body — larger posts answer 400."""

_LAG_INTERVAL_S = 0.25
"""How often the watchdog coroutine samples event-loop lag."""

_PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _MalformedRequest(Exception):
    """One request this parser refuses; carries connection disposition.

    ``recoverable`` is ``True`` when the head was fully consumed and the
    framing of any body is known, so the connection can answer 400 and
    keep serving subsequent pipelined requests; ``False`` means the byte
    stream is unsynchronized and the connection must close after the 400.
    """

    def __init__(self, message: str, recoverable: bool):
        super().__init__(message)
        self.recoverable = recoverable


class _Request:
    """One parsed HTTP request as read off the event loop."""

    __slots__ = ("method", "target", "headers", "body", "keep_alive")

    def __init__(
        self,
        method: str,
        target: str,
        headers: Dict[str, str],
        body: bytes,
        keep_alive: bool,
    ):
        self.method = method
        self.target = target
        self.headers = headers
        self.body = body
        self.keep_alive = keep_alive


def default_workers() -> int:
    """Executor sizing default: enough threads to hide scoring latency
    without GIL-thrashing — ``min(32, cpu_count + 4)``, mirroring the
    stdlib's own ``ThreadPoolExecutor`` heuristic."""
    return min(32, (os.cpu_count() or 4) + 4)


class AsyncLinkPredictionServer:
    """Asyncio HTTP server bound to one service (and optional batcher).

    ``port=0`` picks a free port.  ``max_inflight`` bounds admitted
    requests (excess is shed with 503) and ``request_deadline_s`` bounds
    each request's wall-clock (overrun answers 503); both default to off.
    Lifecycle: :meth:`serve_forever` blocks in the calling thread,
    :meth:`start` runs it on a daemon thread and returns once the socket
    is bound, :meth:`shutdown` drains gracefully and :meth:`server_close`
    reaps the thread and the executor.
    """

    def __init__(
        self,
        service: LinkPredictionService,
        host: str = "127.0.0.1",
        port: int = 8080,
        batcher: Optional[MicroBatcher] = None,
        max_inflight: Optional[int] = None,
        request_deadline_s: Optional[float] = None,
        max_workers: Optional[int] = None,
        drain_grace_s: float = 5.0,
    ):
        if max_inflight is not None and int(max_inflight) < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        if max_workers is not None and int(max_workers) < 1:
            raise ValueError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        self.service = service
        self.batcher = batcher
        self.router = EndpointRouter(
            service, batcher, request_deadline_s=request_deadline_s
        )
        self.request_deadline_s = self.router.request_deadline_s
        self.max_inflight = None if max_inflight is None else int(max_inflight)
        self.max_workers = (
            default_workers() if max_workers is None else int(max_workers)
        )
        self.drain_grace_s = float(drain_grace_s)
        self._host = host
        self._port = port
        self._address: Optional[Tuple[str, int]] = None
        self._inflight = 0
        self._draining = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._conn_tasks: "set" = set()
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        registry = service.registry
        self._loop_lag = registry.gauge(
            "serving.loop_lag_seconds",
            help="Event-loop scheduling lag sampled by the watchdog task.",
        )
        self._queue_depth = registry.gauge(
            "serving.executor.queue_depth",
            help="Requests admitted to the executor but not yet answered.",
        )
        self._executor_wait = registry.histogram(
            "serving.executor.wait_seconds",
            help="Queue wait between admission and a worker thread start.",
        )

    # -- lifecycle -------------------------------------------------------
    @property
    def server_address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — available once serving started."""
        if self._address is None:
            return (self._host, self._port)
        return self._address

    @property
    def running(self) -> bool:
        """Whether the daemon serving thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def serve_forever(self) -> None:
        """Run the event loop in the calling thread until :meth:`shutdown`."""
        asyncio.run(self._main())

    def start(self) -> "AsyncLinkPredictionServer":
        """Serve on a daemon thread; returns once the socket is bound."""
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-aio-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("asyncio server failed to start within 10s")
        if self._startup_error is not None:
            self._thread.join(timeout=5.0)
            raise self._startup_error
        return self

    def _thread_main(self) -> None:
        """Daemon-thread entry: surface bind errors to :meth:`start`."""
        try:
            self.serve_forever()
        except BaseException as exc:  # re-raised from start()
            self._startup_error = exc
        finally:
            self._ready.set()

    def shutdown(self, wait: bool = True) -> None:
        """Begin graceful drain; with ``wait`` block until serving ended.

        Threadsafe: stops accepting, lets in-flight requests finish
        within ``max(drain_grace_s, request_deadline_s)``, closes idle
        keep-alive connections, flushes the batcher's queue and shuts
        the executor down.
        """
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self._signal_stop)
            except RuntimeError:
                pass  # loop already closed between the check and the call
        if (
            wait
            and self._thread is not None
            and self._thread is not threading.current_thread()
        ):
            self._thread.join(
                timeout=max(self.drain_grace_s, 1.0) + 30.0
            )

    def _signal_stop(self) -> None:
        """Flip the stop event from inside the loop."""
        if self._stop_event is not None:
            self._stop_event.set()

    def server_close(self) -> None:
        """Drain (if still serving) and reap the daemon thread."""
        self.shutdown(wait=True)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    async def _main(self) -> None:
        """The whole server lifetime as one coroutine."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_workers,
            thread_name_prefix="repro-aio-worker",
        )
        server = await asyncio.start_server(
            self._on_connection,
            self._host,
            self._port,
            limit=MAX_HEADER_BYTES,
        )
        self._server = server
        sockname = server.sockets[0].getsockname()
        self._address = (sockname[0], sockname[1])
        lag_task = asyncio.ensure_future(self._lag_monitor())
        self._ready.set()
        _log.info(
            "asyncio server listening",
            host=self._address[0],
            port=self._address[1],
            workers=self.max_workers,
        )
        try:
            await self._stop_event.wait()
        finally:
            await self._drain(lag_task)

    async def _drain(self, lag_task: "asyncio.Future") -> None:
        """Stop accepting, finish in-flight, flush, reap — in that order."""
        self._draining = True
        assert self._server is not None and self._loop is not None
        self._server.close()
        await self._server.wait_closed()
        budget = self.drain_grace_s
        if self.request_deadline_s is not None:
            budget = max(budget, self.request_deadline_s)
        give_up = self._loop.time() + budget
        while self._inflight > 0 and self._loop.time() < give_up:
            await asyncio.sleep(0.01)
        # Give just-finished requests a beat to write their responses,
        # then cancel whatever is left: idle keep-alive readers.
        await asyncio.sleep(0.05)
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(
                *list(self._conn_tasks), return_exceptions=True
            )
        lag_task.cancel()
        await asyncio.gather(lag_task, return_exceptions=True)
        if self.batcher is not None and self.batcher.running:
            # The flush blocks; run it off-loop so lag sampling could
            # continue if it ever moves before the cancel above.
            await self._loop.run_in_executor(None, self.batcher.flush)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        _log.info("asyncio server drained", inflight=self._inflight)

    async def _lag_monitor(self) -> None:
        """Sample event-loop scheduling lag into the gauge forever."""
        while True:
            before = time.perf_counter()
            await asyncio.sleep(_LAG_INTERVAL_S)
            lag = max(0.0, time.perf_counter() - before - _LAG_INTERVAL_S)
            self._loop_lag.set(lag)

    # -- connection handling ---------------------------------------------
    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Accept callback: spawn (and track) one connection task."""
        task = asyncio.ensure_future(self._serve_connection(reader, writer))
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve framed requests off one connection until close/drain."""
        peer = writer.get_extra_info("peername")
        client = peer[0] if peer else None
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _MalformedRequest as exc:
                    keep = exc.recoverable
                    await self._answer_malformed(writer, exc, client, keep)
                    if not keep:
                        break
                    continue
                if request is None:
                    break  # clean EOF between requests
                keep = request.keep_alive and not self._draining
                await self._answer(request, writer, client, keep)
                if not keep:
                    break
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[_Request]:
        """Read one framed request; ``None`` on clean EOF.

        Raises :class:`_MalformedRequest` for anything this server will
        not serve, flagged recoverable only when the connection's byte
        stream is still synchronized afterwards.
        """
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise _MalformedRequest(
                "truncated request head", recoverable=False
            ) from None
        except asyncio.LimitOverrunError:
            raise _MalformedRequest(
                f"request head exceeds {MAX_HEADER_BYTES} bytes",
                recoverable=False,
            ) from None
        lines = head.decode("latin-1").split("\r\n")
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep or not name.strip():
                # Without every header the body framing is unknowable.
                raise _MalformedRequest(
                    f"malformed header line: {line!r}", recoverable=False
                )
            headers[name.strip().lower()] = value.strip()
        parts = lines[0].split()
        bad_request_line = None
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            bad_request_line = _MalformedRequest(
                f"malformed request line: {lines[0]!r}", recoverable=True
            )
            method, target, version = "GET", "/", "HTTP/1.1"
        else:
            method, target, version = parts
        if "transfer-encoding" in headers:
            raise _MalformedRequest(
                "transfer-encoding is not supported; send Content-Length",
                recoverable=False,
            )
        raw_length = headers.get("content-length", "0")
        try:
            length = int(raw_length)
        except ValueError:
            raise _MalformedRequest(
                f"invalid Content-Length: {raw_length!r}", recoverable=False
            ) from None
        if length < 0 or length > MAX_BODY_BYTES:
            raise _MalformedRequest(
                f"unacceptable Content-Length: {length}", recoverable=False
            )
        body = b""
        if length:
            # Consume the body even for a bad request line so the 400
            # leaves the stream aligned on the next request.
            body = await reader.readexactly(length)
        if bad_request_line is not None:
            raise bad_request_line
        connection = headers.get("connection", "").lower()
        if version == "HTTP/1.1":
            keep_alive = connection != "close"
        else:
            keep_alive = connection == "keep-alive"
        return _Request(method, target, headers, body, keep_alive)

    async def _answer_malformed(
        self,
        writer: asyncio.StreamWriter,
        exc: _MalformedRequest,
        client: Optional[str],
        keep: bool,
    ) -> None:
        """400 with the uniform JSON error body; maybe keep the stream."""
        started = time.perf_counter()
        request_id = new_request_id()
        self.router.request_errors.labels(route="other").inc()
        payload = self.router.error_payload(400, str(exc), request_id)
        self.router.observe(
            "other", "INVALID", 400, time.perf_counter() - started
        )
        # Log before the body hits the socket: a client that reads the
        # response must already be able to find the access record.
        self._log_access("INVALID", "-", 400, started, client, request_id)
        writer.write(_format_response(400, payload, request_id, None, keep))
        await writer.drain()

    async def _answer(
        self,
        request: _Request,
        writer: asyncio.StreamWriter,
        client: Optional[str],
        keep: bool,
    ) -> None:
        """Admit, offload, respond — the per-request fast path."""
        started = time.perf_counter()
        incoming = request.headers.get("x-request-id")
        request_id = (incoming or new_request_id())[:64]
        url = urlsplit(request.target)
        route = ROUTE_LABELS.get(url.path, "other")
        deadline = (
            None
            if self.request_deadline_s is None
            else started + self.request_deadline_s
        )
        parent = TraceContext.from_header(
            request.headers.get("x-trace-context")
        )
        trace_context: Optional[TraceContext] = None
        if (
            self.max_inflight is not None
            and self._inflight >= self.max_inflight
        ):
            status, payload = self.router.shed(request_id)
            self.router.observe(
                route, request.method, status, time.perf_counter() - started
            )
        else:
            self._inflight += 1
            self._queue_depth.set(float(self._inflight))
            submitted = time.perf_counter()
            try:
                status, payload, trace_context = await self._loop.run_in_executor(
                    self._executor,
                    self._execute,
                    request.method,
                    url.path,
                    url.query,
                    request.body,
                    request_id,
                    parent,
                    route,
                    started,
                    submitted,
                    deadline,
                )
            except RuntimeError:
                # Executor already shut down: the server is draining.
                status, payload = 503, self.router.error_payload(
                    503, "server is draining; retry elsewhere", request_id
                )
            except Exception as exc:  # the contract: never an unhandled 500
                _log.error(
                    "executor hop failed",
                    route=route,
                    error=f"{type(exc).__name__}: {exc}",
                    request_id=request_id,
                )
                status, payload = 500, self.router.error_payload(
                    500,
                    f"internal error: {type(exc).__name__}: {exc}",
                    request_id,
                )
            finally:
                self._inflight -= 1
                self._queue_depth.set(float(self._inflight))
        # Log before the body hits the socket: once the client has read
        # the response, the access record must already exist.
        self._log_access(
            request.method, url.path, status, started, client, request_id
        )
        writer.write(
            _format_response(status, payload, request_id, trace_context, keep)
        )
        await writer.drain()

    def _execute(
        self,
        method: str,
        path: str,
        query_string: str,
        body: bytes,
        request_id: str,
        parent: Optional[TraceContext],
        route: str,
        started: float,
        submitted: float,
        deadline: Optional[float],
    ) -> Tuple[int, Union[Dict, str], Optional[TraceContext]]:
        """Worker-thread half of one request.

        Context variables do not cross ``run_in_executor``, so the
        worker re-binds the request id and opens the request trace
        itself; the queue wait becomes a ``serving.executor_hop`` span
        so a sampled trace shows exactly where admission-to-start time
        went.  The latency sample is observed here, before the event
        loop writes the response, so a client that reads the response
        and immediately scrapes ``/metrics`` finds it.
        """
        queue_wait = time.perf_counter() - submitted
        self._executor_wait.observe(queue_wait)
        tracer = self.service.tracer
        query = parse_qs(query_string)
        with request_context(request_id):
            with tracer.trace(
                route, parent=parent, request_id=request_id
            ) as req_trace:
                if req_trace.is_recording:
                    req_trace.add_span(
                        "serving.executor_hop",
                        queue_wait,
                        attrs={"queue_wait_s": round(queue_wait, 6)},
                    )
                status, payload = self.router.dispatch(
                    method, path, query, body, request_id, deadline
                )
                if status >= 500:
                    req_trace.mark_error(
                        payload.get("error", f"http {status}")
                        if isinstance(payload, dict)
                        else f"http {status}"
                    )
                context = req_trace.context
                self.router.observe(
                    route, method, status, time.perf_counter() - started
                )
            # The trace committed when the block exited — before the
            # event loop can possibly write the response bytes.
        return status, payload, context

    def _log_access(
        self,
        method: str,
        path: str,
        status: int,
        started: float,
        client: Optional[str],
        request_id: str,
    ) -> None:
        """One structured DEBUG access record per answered request."""
        if not _access_log.isEnabledFor(logging.DEBUG):
            return
        _access_log.debug(
            f'"{method} {path}" {status}',
            method=method,
            path=path,
            status=status,
            duration_ms=(time.perf_counter() - started) * 1e3,
            client=client,
            request_id=request_id,
        )


def _format_response(
    status: int,
    payload: Union[Dict, str],
    request_id: Optional[str],
    trace_context: Optional[TraceContext],
    keep: bool,
) -> bytes:
    """One fully-framed HTTP/1.1 response as bytes."""
    if isinstance(payload, str):
        blob = payload.encode("utf-8")
        content_type = _PROMETHEUS_CONTENT_TYPE
    else:
        blob = json.dumps(payload).encode("utf-8")
        content_type = "application/json"
    try:
        phrase = HTTPStatus(status).phrase
    except ValueError:
        phrase = "Unknown"
    head = [
        f"HTTP/1.1 {status} {phrase}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(blob)}",
    ]
    if request_id is not None:
        head.append(f"X-Request-Id: {request_id}")
    if trace_context is not None:
        head.append(f"X-Trace-Context: {trace_context.to_header()}")
    head.append(f"Connection: {'keep-alive' if keep else 'close'}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + blob

