"""Open-loop HTTP load generator: one thread, pipelined keep-alive sockets.

Requests go out on a fixed schedule whether or not earlier answers have
arrived (open loop: independent users do not wait for each other).
Request ``i`` is sent on connection ``i % connections`` as soon as it is
due, behind any answers still outstanding on that connection (HTTP/1.1
pipelining), and its latency is measured from when it was *due*, so a
stall is charged to every request queued behind it.  How late the
generator itself sent each request is recorded too; a late generator
makes the run invalid, not the server slow.

One thread does all sending and receiving with ``selectors``, so the
generator never needs more threads than the benchmark has cores.
"""

from __future__ import annotations

import re
import selectors
import socket
import time
from collections import deque
from typing import List, Optional

_clock = time.perf_counter
_LENGTH = re.compile(rb"content-length:\s*(\d+)", re.I)


class Call:
    """One scheduled request and what became of it."""

    __slots__ = ("due", "raw", "meta", "sent", "done", "status", "body")

    def __init__(self, due: float, raw: bytes, meta):
        self.due = due
        self.raw = raw
        self.meta = meta
        self.sent: Optional[float] = None
        self.done: Optional[float] = None
        self.status = 0
        self.body = b""


def get(path: str, request_id: str) -> bytes:
    return (
        f"GET {path} HTTP/1.1\r\nHost: bench\r\nX-Request-Id: {request_id}\r\n\r\n"
    ).encode("latin-1")


class _Connection:
    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.buffer = b""
        self.waiting: deque = deque()

    def parse(self, now: float) -> int:
        """Complete every answer fully in the buffer; returns how many."""
        finished = 0
        while self.waiting:
            head_end = self.buffer.find(b"\r\n\r\n")
            if head_end < 0:
                break
            head = self.buffer[:head_end]
            match = _LENGTH.search(head)
            length = int(match.group(1)) if match else 0
            end = head_end + 4 + length
            if len(self.buffer) < end:
                break
            call = self.waiting.popleft()
            call.status = int(head.split(b" ", 2)[1])
            call.body = self.buffer[head_end + 4 : end]
            call.done = now
            self.buffer = self.buffer[end:]
            finished += 1
        return finished


def run(port: int, calls: List[Call], connections: int, grace_s: float = 10.0) -> float:
    """Send ``calls`` (sorted by ``due``, seconds from start) and collect answers.

    Returns the absolute start time; each call's ``sent`` and ``done``
    are absolute ``perf_counter`` instants (``done`` stays ``None`` for a
    call that never got a complete answer within ``grace_s`` of the last
    due time, or whose connection failed).
    """
    conns = [_Connection(port) for _ in range(connections)]
    selector = selectors.DefaultSelector()
    for index, conn in enumerate(conns):
        selector.register(conn.sock, selectors.EVENT_READ, index)
    start = _clock() + 0.02
    total = len(calls)
    give_up = start + (calls[-1].due if calls else 0.0) + grace_s
    next_index = 0
    finished = 0
    try:
        while finished < total:
            now = _clock()
            while next_index < total and start + calls[next_index].due <= now:
                call = calls[next_index]
                conn = conns[next_index % connections]
                next_index += 1
                if conn.sock is None:
                    finished += 1  # connection already failed: never sent
                    continue
                try:
                    conn.sock.sendall(call.raw)
                except OSError:
                    finished += _fail(conn, selector) + 1
                    continue
                call.sent = _clock()
                conn.waiting.append(call)
            if now > give_up:
                break
            wait = give_up - now
            if next_index < total:
                wait = min(wait, start + calls[next_index].due - now)
            for key, _ in selector.select(max(0.0, wait)):
                conn = conns[key.data]
                try:
                    chunk = conn.sock.recv(262144)
                except (BlockingIOError, InterruptedError):
                    continue
                except OSError:
                    chunk = b""
                if not chunk:
                    finished += _fail(conn, selector)
                    continue
                conn.buffer += chunk
                finished += conn.parse(_clock())
    finally:
        for conn in conns:
            if conn.sock is not None:
                selector.unregister(conn.sock)
                conn.sock.close()
        selector.close()
    return start


def _fail(conn: _Connection, selector) -> int:
    """Close a broken connection; its unanswered calls stay failed."""
    lost = len(conn.waiting)
    conn.waiting.clear()
    selector.unregister(conn.sock)
    conn.sock.close()
    conn.sock = None
    return lost
