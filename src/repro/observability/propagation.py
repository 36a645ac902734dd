"""Distributed trace context: minted at the edge, re-bound across workers.

One request's identity is a :class:`TraceContext` — trace-id, span-id
and the head-sampling decision — created by the HTTP front end (or any
entry point) and carried everywhere the request's work happens:

* **within a process** via a single :mod:`contextvars` variable holding
  the active *carrier* (the tracer's recording object, or a
  :class:`RemoteTrace` shell when the record lives elsewhere);
* **across threads and processes** via :func:`inject_runtime_context` /
  :func:`activate_runtime_context`, which serialize the context (plus
  the structured-logging request/run ids) into a plain dict that rides
  in the task payload and is re-bound in the worker — this is how
  ``parallel_map_processes`` shard workers join the request's trace;
* **across HTTP hops** via :meth:`TraceContext.to_header` /
  :meth:`TraceContext.from_header` (the ``X-Trace-Context`` header).

The contextvar is owned here so the tracer and the pools agree on one
binding point and neither imports the other's internals.
"""

from __future__ import annotations

import random
import zlib
from contextlib import ExitStack, contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterator, Optional

from repro.observability.logging import (
    current_request_id,
    current_run_id,
    request_context,
    run_context,
)

_SAMPLE_SCALE = 1 << 32

#: Default head-sampling rate of a serving tracer (1 request in 100).
DEFAULT_SAMPLE_RATE = 0.01


def new_trace_id() -> str:
    """A fresh 64-bit lowercase-hex trace id."""
    return "%016x" % random.getrandbits(64)


def new_span_id() -> str:
    """A fresh 32-bit lowercase-hex span id."""
    return "%08x" % random.getrandbits(32)


def sampling_threshold(rate: float) -> int:
    """The 32-bit hash threshold for a sampling ``rate`` in [0, 1]."""
    if rate >= 1.0:
        return _SAMPLE_SCALE
    if rate <= 0.0:
        return 0
    return int(rate * _SAMPLE_SCALE)


def sampled_below(trace_id: str, threshold: int) -> bool:
    """:func:`sampling_decision` against a precomputed threshold."""
    if threshold >= _SAMPLE_SCALE:
        return True
    if threshold <= 0:
        return False
    return (zlib.crc32(trace_id.encode("utf-8")) & 0xFFFFFFFF) < threshold


def sampling_decision(trace_id: str, rate: float) -> bool:
    """Deterministic head-sampling decision for ``trace_id`` at ``rate``.

    The decision is a pure function of the trace id (CRC-32 against a
    scaled threshold), so every process that sees the same id — edge,
    batcher, shard worker — independently reaches the same verdict, and
    a trace seen in the buffer can be replayed from its id alone.
    """
    return sampled_below(trace_id, sampling_threshold(rate))


class TraceContext:
    """Immutable (trace-id, span-id, sampled) triple crossing boundaries."""

    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(self, trace_id: str, span_id: str, sampled: bool) -> None:
        self.trace_id = str(trace_id)
        self.span_id = str(span_id)
        self.sampled = bool(sampled)

    def __repr__(self) -> str:
        """Debug form, e.g. ``TraceContext('ab..', 'cd..', sampled=True)``."""
        return (
            f"TraceContext({self.trace_id!r}, {self.span_id!r}, "
            f"sampled={self.sampled})"
        )

    def __eq__(self, other: object) -> bool:
        """Contexts are equal when all three fields match."""
        return (
            isinstance(other, TraceContext)
            and self.trace_id == other.trace_id
            and self.span_id == other.span_id
            and self.sampled == other.sampled
        )

    def __hash__(self) -> int:
        """Hash over the identifying triple."""
        return hash((self.trace_id, self.span_id, self.sampled))

    def child(self) -> "TraceContext":
        """A child context: same trace and decision, fresh span id."""
        return TraceContext(self.trace_id, new_span_id(), self.sampled)

    # -- HTTP header form --------------------------------------------

    def to_header(self) -> str:
        """Serialize as ``<trace_id>-<span_id>-<01|00>``."""
        return (
            f"{self.trace_id}-{self.span_id}-"
            f"{'01' if self.sampled else '00'}"
        )

    @classmethod
    def from_header(cls, header: Optional[str]) -> Optional["TraceContext"]:
        """Parse :meth:`to_header` output; ``None`` on absent/malformed."""
        if not header:
            return None
        parts = header.strip().rsplit("-", 2)
        if len(parts) != 3:
            return None
        trace_id, span_id, flag = parts
        if not trace_id or not span_id or flag not in ("00", "01"):
            return None
        return cls(trace_id, span_id, flag == "01")

    # -- task-payload form -------------------------------------------

    def to_payload(self) -> Dict[str, Any]:
        """Serialize into a plain dict for task payloads."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "sampled": self.sampled,
        }

    @classmethod
    def from_payload(
        cls, payload: Optional[Dict[str, Any]]
    ) -> Optional["TraceContext"]:
        """Rebuild from :meth:`to_payload` output; ``None`` if absent."""
        if not payload:
            return None
        trace_id = payload.get("trace_id")
        span_id = payload.get("span_id")
        if not trace_id or not span_id:
            return None
        return cls(trace_id, span_id, bool(payload.get("sampled")))


class RemoteTrace:
    """Carrier for a context whose span record lives in another process.

    Binding one of these makes :func:`current_trace_context` work in a
    worker (so the context keeps propagating downstream) without any
    local span recording — ``is_recording`` stays false, so tracer span
    sites fall through to their null path.
    """

    __slots__ = ("context",)

    is_recording = False

    def __init__(self, context: TraceContext) -> None:
        self.context = context


_ACTIVE: ContextVar[Optional[Any]] = ContextVar(
    "repro_active_trace", default=None
)


def current_trace() -> Optional[Any]:
    """The bound carrier (tracer record or :class:`RemoteTrace`), if any."""
    return _ACTIVE.get()


def current_trace_context() -> Optional[TraceContext]:
    """The active :class:`TraceContext`, or ``None`` outside a trace."""
    carrier = _ACTIVE.get()
    return None if carrier is None else carrier.context


@contextmanager
def bind_trace(carrier: Any) -> Iterator[Any]:
    """Bind ``carrier`` (anything with ``.context``) for the block."""
    token = _ACTIVE.set(carrier)
    try:
        yield carrier
    finally:
        _ACTIVE.reset(token)


def inject_runtime_context() -> Optional[Dict[str, Any]]:
    """Snapshot the ambient request identity into a picklable dict.

    Returns ``None`` when nothing is bound (the common offline-fit
    case), so callers can skip per-item payload plumbing entirely.
    """
    payload: Dict[str, Any] = {}
    request_id = current_request_id()
    if request_id is not None:
        payload["request_id"] = request_id
    run_id = current_run_id()
    if run_id is not None:
        payload["run_id"] = run_id
    context = current_trace_context()
    if context is not None:
        payload["trace"] = context.to_payload()
    return payload or None


@contextmanager
def activate_runtime_context(
    payload: Optional[Dict[str, Any]],
) -> Iterator[None]:
    """Re-bind an :func:`inject_runtime_context` snapshot in a worker.

    Restores the request id and run id for structured logging and binds
    a :class:`RemoteTrace` so downstream code sees the originating
    trace context.  A falsy payload makes this a no-op, so the wrapper
    is safe on every worker invocation.
    """
    if not payload:
        yield
        return
    with ExitStack() as stack:
        request_id = payload.get("request_id")
        if request_id is not None:
            stack.enter_context(request_context(request_id))
        run_id = payload.get("run_id")
        if run_id is not None:
            stack.enter_context(run_context(run_id))
        context = TraceContext.from_payload(payload.get("trace"))
        if context is not None:
            stack.enter_context(bind_trace(RemoteTrace(context)))
        yield
