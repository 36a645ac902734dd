"""Transport-independent endpoint logic for the link-prediction service.

:class:`EndpointRouter` answers eight endpoints from already-parsed
request pieces — the socket, HTTP framing and the trace edge live in
the asyncio front end (:mod:`repro.serving.aio`), which calls
:meth:`EndpointRouter.dispatch` from its executor workers:

========================  =====================================================
``GET /healthz``          liveness + served artifact version
``GET /readyz``           readiness: 503 while the reload breaker is open
``GET /v1/topk``          ``?user=U&k=K`` → ranked candidate links for ``U``
``POST /v1/topk``         JSON ``{"users": [...], "k": K}`` → batch answers
``GET /v1/score``         ``?u=U&v=V`` → raw pair confidence
``GET /v1/stats``         cache/queue counters, uptime, reload state
``GET /metrics``          the whole registry in Prometheus text format
``GET /debug/profile``    the continuous profiler's attributed sample table
========================  =====================================================

Per-route latency lands in the
``serving.http.request_seconds{route,method,status}`` histogram, 400s in
``serving.http.errors{route}`` and 5xx answers in
``serving.http.server_errors{route}``; each request is also traced on the
service's :class:`~repro.observability.Tracer` (an ``http.<route>`` span
plus ``http.requests`` / ``http.errors`` counters).  When a running
:class:`~repro.serving.batcher.MicroBatcher` is attached, single-user
``GET /v1/topk`` queries are routed through it so concurrent requests
share vectorized scoring passes.

Degradation is explicit, never accidental (DESIGN.md §11):

* every 4xx/5xx body is a JSON object ``{"error", "status", "request_id"}``
  — clients never have to parse an HTML traceback;
* :meth:`EndpointRouter.shed` builds the 503 for requests the transport
  refuses under its ``max_inflight`` bound (``reliability.shed_requests``);
* an optional per-request deadline (``request_deadline_s``) propagates as
  the batcher's wait budget and maps
  :class:`~repro.exceptions.DeadlineExceededError` to 503;
* backpressure, spent retries and a corrupt artifact answer 503 as an
  open circuit breaker does: the request was valid and only the
  server's state refuses it;
* any unexpected exception — including faults armed at the
  ``serving.request`` chaos site — is answered as a JSON 500, so a bug in
  one handler can never leak a raw stack trace or tear the worker down.

Only the standard library is used — a serving container needs numpy and
nothing else.
"""

from __future__ import annotations

import json
import time
from typing import Dict, Optional, Tuple, Union

from repro.exceptions import (
    ArtifactCorruptError,
    BackpressureError,
    CircuitOpenError,
    DeadlineExceededError,
    ReproError,
    RetryExhaustedError,
)
from repro.observability.logging import get_logger
from repro.observability.profiler import global_profiler
from repro.reliability.faults import InjectedFaultError, fault_point
from repro.serving.batcher import MicroBatcher
from repro.serving.service import LinkPredictionService

_log = get_logger("repro.serving.http")

# Failures of the server, not of the request: each answers 503.
_UNAVAILABLE = (
    DeadlineExceededError,
    CircuitOpenError,
    BackpressureError,
    RetryExhaustedError,
    ArtifactCorruptError,
)

ROUTE_LABELS = {
    "/healthz": "healthz",
    "/readyz": "readyz",
    "/v1/topk": "topk",
    "/v1/score": "score",
    "/v1/stats": "stats",
    "/metrics": "metrics",
    "/debug/profile": "debug",
}
"""Fixed route-label vocabulary — unknown paths collapse to ``other`` so a
scanner cannot explode the metric cardinality."""

SHED_MESSAGE = (
    "overloaded: too many requests in flight; retry with backoff"
)
"""The uniform 503 body text for load-shed answers."""


class EndpointRouter:
    """Transport-independent endpoint dispatch for one service.

    Owns the route tables, the exception→status ladder, the per-request
    deadline budget and every HTTP-level metric series.  The transport
    calls :meth:`dispatch` with already-parsed request pieces, so the
    whole endpoint contract can be exercised without a socket.
    """

    def __init__(
        self,
        service: LinkPredictionService,
        batcher: Optional[MicroBatcher] = None,
        request_deadline_s: Optional[float] = None,
    ):
        if request_deadline_s is not None and request_deadline_s <= 0:
            raise ValueError(
                f"request_deadline_s must be positive, got {request_deadline_s}"
            )
        self.service = service
        self.batcher = batcher
        self.request_deadline_s = request_deadline_s
        registry = service.registry
        self.request_latency = registry.histogram(
            "serving.http.request_seconds",
            help="HTTP request wall-clock by route, method and status.",
            labels=("route", "method", "status"),
        )
        self.request_errors = registry.counter(
            "serving.http.errors",
            help="Requests answered 400 (bad input) by route.",
            labels=("route",),
        )
        self.not_found = registry.counter(
            "serving.http.not_found", help="Requests for unknown endpoints."
        )
        self.shed_requests = registry.counter(
            "reliability.shed_requests",
            help="Requests answered 503 because max_inflight was exceeded.",
        )
        self.server_errors = registry.counter(
            "serving.http.server_errors",
            help="Requests answered 5xx (internal error or degradation).",
            labels=("route",),
        )

    # -- shared plumbing -------------------------------------------------
    def observe(
        self, route: str, method: str, status: int, seconds: float
    ) -> None:
        """Record one answered request into the labeled latency histogram."""
        self.request_latency.labels(
            route=route, method=method, status=str(status)
        ).observe(seconds)

    def error_payload(
        self, status: int, message: str, request_id: Optional[str]
    ) -> Dict:
        """The uniform JSON body of every 4xx/5xx answer."""
        return {
            "error": message,
            "status": status,
            "request_id": request_id,
        }

    def shed(self, request_id: Optional[str]) -> Tuple[int, Dict]:
        """Account one load-shed request and build its 503 answer."""
        self.service.tracer.count("http.shed")
        self.shed_requests.inc()
        return 503, self.error_payload(503, SHED_MESSAGE, request_id)

    def remaining_budget(
        self, deadline: Optional[float], fallback: float = 30.0
    ) -> float:
        """Seconds left before ``deadline`` (``fallback`` when unbounded).

        ``deadline`` is an absolute :func:`time.perf_counter` instant.
        Raises :class:`~repro.exceptions.DeadlineExceededError` — mapped
        to 503 by :meth:`dispatch` — once the budget is already spent.
        """
        if deadline is None:
            return fallback
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            raise DeadlineExceededError(
                f"request exceeded its {self.request_deadline_s}s deadline"
            )
        return remaining

    # -- dispatch --------------------------------------------------------
    def dispatch(
        self,
        method: str,
        path: str,
        query: Dict,
        body: bytes,
        request_id: Optional[str],
        deadline: Optional[float],
    ) -> Tuple[int, Union[Dict, str]]:
        """Answer one admitted request; every failure maps to a JSON error.

        ``query`` is the already-parsed query dict, ``body`` the raw POST
        bytes (empty for GET) and ``deadline`` an absolute
        :func:`time.perf_counter` instant or ``None``.  The caller is
        expected to have bound the request id into the logging context
        and opened the request trace; spans emitted here attach to it.
        """
        tracer = self.service.tracer
        route = ROUTE_LABELS.get(path, "other")
        if method == "GET":
            routes = {
                "/healthz": lambda: self._healthz(),
                "/readyz": lambda: self._readyz(request_id),
                "/v1/stats": lambda: self._stats(),
                "/v1/topk": lambda: self._topk_get(
                    query, request_id, deadline
                ),
                "/v1/score": lambda: self._score(query),
                "/metrics": lambda: self._metrics(),
                "/debug/profile": lambda: self._profile(query),
            }
        elif method == "POST":
            routes = {
                "/v1/topk": lambda: self._topk_post(body, request_id)
            }
        else:
            return 501, self.error_payload(
                501, f"unsupported method: {method}", request_id
            )
        handler = routes.get(path)
        if handler is None:
            tracer.count("http.not_found")
            self.not_found.inc()
            return 404, self.error_payload(
                404, f"no such endpoint: {path}", request_id
            )
        with tracer.span(f"http.{path.lstrip('/').replace('/', '.')}"):
            tracer.count("http.requests")
            try:
                fault_point("serving.request")
                return handler()
            except _UNAVAILABLE as exc:
                # Degradation, not caller error: the request was valid but
                # the server cannot answer it now (out of time, fenced off,
                # overloaded, out of retries, or holding a damaged artifact).
                tracer.count("http.degraded")
                self.server_errors.labels(route=route).inc()
                return 503, self.error_payload(503, str(exc), request_id)
            except InjectedFaultError as exc:
                # Chaos faults stand in for arbitrary internal crashes, so
                # they take the same path a real unhandled error would.
                tracer.count("http.failures")
                self.server_errors.labels(route=route).inc()
                return 500, self.error_payload(
                    500,
                    f"internal error: {type(exc).__name__}: {exc}",
                    request_id,
                )
            except (ReproError, ValueError) as exc:
                tracer.count("http.errors")
                self.request_errors.labels(route=route).inc()
                return 400, self.error_payload(400, str(exc), request_id)
            except Exception as exc:  # the contract: never an unhandled 500
                tracer.count("http.failures")
                self.server_errors.labels(route=route).inc()
                _log.error(
                    "unhandled error answering request",
                    route=route,
                    error=f"{type(exc).__name__}: {exc}",
                    request_id=request_id,
                )
                return 500, self.error_payload(
                    500,
                    f"internal error: {type(exc).__name__}: {exc}",
                    request_id,
                )

    # -- endpoints -------------------------------------------------------
    def _healthz(self) -> Tuple[int, Dict]:
        """Liveness plus the currently-served artifact version."""
        service = self.service
        return 200, {
            "status": "ok",
            "version": service.version,
            "model": service.artifact.manifest.get("name"),
            "n_users": service.n_users,
        }

    def _readyz(self, request_id: Optional[str]) -> Tuple[int, Dict]:
        """Readiness — liveness stays on ``/healthz``; this gate flips to
        503 while the reload breaker is open (stale-serving replica)."""
        service = self.service
        breaker_state = service.reload_breaker.state
        if service.ready():
            return 200, {
                "status": "ready",
                "version": service.version,
                "reload_breaker": breaker_state,
            }
        payload = self.error_payload(
            503,
            f"not ready: reload circuit breaker is {breaker_state}; "
            "serving stale artifact",
            request_id,
        )
        payload["reload_breaker"] = breaker_state
        return 503, payload

    def _stats(self) -> Tuple[int, Dict]:
        """Cache/queue counters, uptime and reload state."""
        return 200, self.service.stats()

    def _metrics(self) -> Tuple[int, str]:
        """The whole registry rendered as Prometheus text 0.0.4."""
        return 200, self.service.metrics_text()

    def _profile(self, query: Dict) -> Tuple[int, Dict]:
        """The continuous profiler's aggregate table (``?top=N``)."""
        top = _int_param(query, "top", default=50)
        return 200, global_profiler().snapshot(top=top)

    def _topk_get(
        self,
        query: Dict,
        request_id: Optional[str],
        deadline: Optional[float],
    ) -> Tuple[int, Dict]:
        """Single-user ranked candidates, batched when a batcher runs."""
        user = _int_param(query, "user")
        k = _int_param(query, "k", default=10)
        batcher = self.batcher
        if batcher is not None and batcher.running:
            # The remaining request budget becomes the batcher wait bound,
            # so a deadline overrun surfaces as a 503 instead of a stall.
            ranking = batcher.submit(
                user, k, timeout=self.remaining_budget(deadline)
            )
        else:
            # Shed instead of serving a dead request.
            self.remaining_budget(deadline)
            ranking = self.service.top_k(user, k)
        payload = _topk_payload(self.service, user, k, ranking)
        payload["request_id"] = request_id
        return 200, payload

    def _topk_post(
        self, body: bytes, request_id: Optional[str]
    ) -> Tuple[int, Dict]:
        """Single- or multi-user top-k from a JSON body."""
        parsed = _read_json(body)
        k = _to_int(parsed.get("k", 10), "'k'")
        service = self.service
        if "users" in parsed:
            if not isinstance(parsed["users"], list):
                raise ValueError("'users' must be a JSON list of user ids")
            users = [_to_int(u, "each of 'users'") for u in parsed["users"]]
            rankings = service.batch_top_k(users, k)
            return 200, {
                "k": k,
                "version": service.version,
                "request_id": request_id,
                "results": [
                    _topk_payload(service, user, k, ranking)
                    for user, ranking in zip(users, rankings)
                ],
            }
        if "user" not in parsed:
            raise ValueError("POST /v1/topk requires 'user' or 'users'")
        user = _to_int(parsed["user"], "'user'")
        ranking = service.top_k(user, k)
        payload = _topk_payload(service, user, k, ranking)
        payload["request_id"] = request_id
        return 200, payload

    def _score(self, query: Dict) -> Tuple[int, Dict]:
        """Raw pair confidence plus the known-link flag."""
        u = _int_param(query, "u")
        v = _int_param(query, "v")
        service = self.service
        return 200, {
            "u": u,
            "v": v,
            "score": service.score(u, v),
            "known_link": service.is_known_link(u, v),
            "version": service.version,
        }


def _read_json(raw: bytes) -> Dict:
    """Decode one JSON-object request body (empty bytes → ``{}``)."""
    try:
        body = json.loads(raw.decode("utf-8") or "{}")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(body, dict):
        raise ValueError("request body must be a JSON object")
    return body


def _topk_payload(service, user: int, k: int, ranking) -> Dict:
    """The JSON shape of one top-k answer."""
    return {
        "user": user,
        "k": k,
        "version": service.version,
        "candidates": [
            {"user": candidate, "score": score} for candidate, score in ranking
        ],
    }


def _int_param(query: Dict, name: str, default: Optional[int] = None) -> int:
    """Parse one required/defaulted integer query parameter."""
    values = query.get(name)
    if not values:
        if default is not None:
            return default
        raise ValueError(f"missing required query parameter {name!r}")
    try:
        return int(values[0])
    except ValueError:
        raise ValueError(
            f"query parameter {name!r} must be an integer, got {values[0]!r}"
        ) from None


def _to_int(value, what: str) -> int:
    """``int(value)``; a value that does not convert is the caller's error.

    JSON bodies can carry ``null``, lists, objects or ``Infinity`` where a
    user id or ``k`` belongs — ``int()`` raises ``TypeError`` or
    ``OverflowError`` for those, which must answer 400, not 500.
    """
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
