#!/usr/bin/env python
"""Sustained-load benchmark: throughput-vs-latency of the HTTP server.

An in-repo open-loop load generator for the serving layer.  The
harness:

1. publishes a tiny :class:`FrozenPredictor` artifact to a throwaway
   store and boots ``python -m repro.serving serve`` in a **subprocess**
   (its own interpreter, so the client's GIL never throttles the
   server under test);
2. sweeps a ladder of offered request rates with *open-loop* arrivals —
   request ``i`` is scheduled at ``i/rate`` regardless of whether the
   previous answer came back, and latency is measured from the
   **scheduled** time, so queueing delay counts against the server —
   recording achieved QPS and p50/p95/p99 per offered rate;
3. runs one closed-loop *saturation* pass (every connection back to
   back) whose achieved QPS is the continuous max-throughput measure;
4. records everything as one ``bench_loadgen`` snapshot (context
   ``frontend=aio``) in the repo-root ``BENCH_serving.json`` trajectory.

**Sustained QPS** is the saturation throughput *provided* its p99 stays
within the SLO; otherwise it falls back to the fastest open-loop sweep
point that met the SLO with ≥90% of its offered rate achieved.

With ``--check`` the run is skipped entirely: the newest committed
``aio`` snapshot is read and the gate **fails (exit 1)** unless it
sustains at least :data:`MIN_SUSTAINED_QPS` with its p99 inside the SLO.

Run from the repo root::

    PYTHONPATH=src python tools/load_bench.py --smoke   # short CI sweep
    PYTHONPATH=src python tools/load_bench.py           # full sweep
    PYTHONPATH=src python tools/load_bench.py --check   # CI floor gate
"""

from __future__ import annotations

import argparse
import os
import re
import socket
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

sys.path.insert(0, "src")
sys.path.insert(0, "benchmarks")

from repro.models.persistence import FrozenPredictor  # noqa: E402
from repro.serving.artifacts import ArtifactStore  # noqa: E402
from trajectory import (  # noqa: E402
    latest_snapshots,
    percentile_summary,
    record_snapshot,
)

N_USERS = 256
TOPK_K = 10
WARMUP_REQUESTS = 30
FRONTEND = "aio"
"""Snapshot context tag; keeps new snapshots in the existing series."""

MIN_SUSTAINED_QPS = 3400.0
"""The ``--check`` floor on sustained QPS.

It keeps the bar of the ratio gate it replaced (asyncio >= 3x the
thread-per-connection server, which has since been deleted).  On a
2-core Intel Xeon host, ``--smoke`` runs of that server sustained
919-1,202 req/s, so 3x its ~1.1k is rounded to 3,400; the asyncio
server sustained 4,463-5,095 req/s on the same host.  ``full``-mode
numbers (~7.1k) run higher, which is why the floor is not set there.
"""
_BANNER = re.compile(r"on http://[^:]+:(\d+)")
_CONTENT_LENGTH = re.compile(rb"content-length:\s*(\d+)", re.I)


def _publish_bench_artifact(store_dir: str) -> None:
    """One deterministic frozen-score artifact sized for cheap top-k."""
    rng = np.random.default_rng(17)
    scores = rng.normal(size=(N_USERS, N_USERS))
    ArtifactStore(store_dir).publish(
        FrozenPredictor((scores + scores.T) / 2, {"name": "load-bench"})
    )


def _boot_server(store_dir: str) -> Tuple[subprocess.Popen, int]:
    """Start ``repro.serving serve`` in a child process; return (proc, port).

    Telemetry and the batcher are disabled so the sweep measures the
    transport, not the instrumentation; ``-u`` keeps the startup banner
    (which carries the bound port) unbuffered.
    """
    command = [
        sys.executable,
        "-u",
        "-m",
        "repro.serving",
        "serve",
        "--store",
        store_dir,
        "--port",
        "0",
        "--no-telemetry",
        "--no-batcher",
        "--log-level",
        "WARNING",
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.Popen(
        command,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    port: Optional[int] = None
    assert proc.stdout is not None
    for line in proc.stdout:
        match = _BANNER.search(line)
        if match:
            port = int(match.group(1))
            break
    if port is None:
        proc.terminate()
        raise SystemExit(
            "server exited before printing its banner "
            f"(rc={proc.wait()})"
        )
    return proc, port


class _Connection:
    """A persistent keep-alive HTTP connection with minimal parsing.

    The client is deliberately leaner than ``http.client`` — on a
    single box the generator shares cores with the server under test,
    so every microsecond of client-side parsing shows up as lost
    server throughput.  When the server answers ``Connection: close``
    (it does while draining) the next request reconnects.
    """

    def __init__(self, port: int):
        self._port = port
        self._sock: Optional[socket.socket] = None
        self._buffer = b""

    def request(self, user: int) -> int:
        """Issue one warm top-k GET; return the HTTP status code."""
        if self._sock is None:
            self._sock = socket.create_connection(
                ("127.0.0.1", self._port), timeout=10
            )
            self._sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
            self._buffer = b""
        self._sock.sendall(
            b"GET /v1/topk?user=%d&k=%d HTTP/1.1\r\n"
            b"Host: bench\r\nConnection: keep-alive\r\n\r\n"
            % (user, TOPK_K)
        )
        head = self._read_head()
        status = int(head.split(b" ", 2)[1])
        length_match = _CONTENT_LENGTH.search(head)
        body_len = int(length_match.group(1)) if length_match else 0
        while len(self._buffer) < body_len:
            self._buffer += self._recv()
        self._buffer = self._buffer[body_len:]
        lowered = head.lower()
        keep = (
            lowered.startswith(b"http/1.1")
            and b"connection: close" not in lowered
        ) or b"connection: keep-alive" in lowered
        if not keep:  # HTTP/1.0 closes implicitly, without the header
            self.close()
        return status

    def _read_head(self) -> bytes:
        """Consume one response head (through the blank line)."""
        while b"\r\n\r\n" not in self._buffer:
            self._buffer += self._recv()
        head, _, self._buffer = self._buffer.partition(b"\r\n\r\n")
        return head

    def _recv(self) -> bytes:
        assert self._sock is not None
        chunk = self._sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed mid-response")
        return chunk

    def close(self) -> None:
        """Drop the socket (the next request reconnects)."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None


def _run_open_loop(
    port: int, rate: float, duration_s: float, connections: int
) -> Dict[str, float]:
    """One open-loop sweep point at a fixed offered rate.

    Arrivals are scheduled on a fixed grid and dealt round-robin to the
    connections; a worker that falls behind keeps sending as fast as it
    can, and every latency is measured from the *scheduled* arrival —
    an overloaded server pays for its queue.
    """
    total = max(1, int(rate * duration_s))
    schedules: List[List[float]] = [[] for _ in range(connections)]
    for i in range(total):
        schedules[i % connections].append(i / rate)
    results: List[Tuple[float, int]] = []
    lock = threading.Lock()
    start = time.perf_counter() + 0.05  # let every worker reach the line

    def worker(schedule: List[float]) -> None:
        """Replay one connection's arrival schedule."""
        conn = _Connection(port)
        local: List[Tuple[float, int]] = []
        user = 0
        for offset in schedule:
            scheduled = start + offset
            delay = scheduled - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            try:
                status = conn.request(user % N_USERS)
            except (OSError, ConnectionError, ValueError):
                conn.close()
                status = 599  # transport failure: counts as an error
            user += 1
            local.append((time.perf_counter() - scheduled, status))
        conn.close()
        with lock:
            results.extend(local)

    threads = [
        threading.Thread(target=worker, args=(s,), daemon=True)
        for s in schedules
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    return _summarize(results, elapsed, offered_qps=rate)


def _run_saturation(
    port: int, duration_s: float, connections: int
) -> Dict[str, float]:
    """Closed-loop saturation: every connection back to back.

    Achieved QPS here is a *continuous* capacity measure (no offered-
    rate quantization), with tail latency bounded by the connection
    count — the number the ``--check`` floor reads.
    """
    results: List[Tuple[float, int]] = []
    lock = threading.Lock()
    stop = threading.Event()

    def worker() -> None:
        """Hammer until told to stop."""
        conn = _Connection(port)
        local: List[Tuple[float, int]] = []
        user = 0
        while not stop.is_set():
            began = time.perf_counter()
            try:
                status = conn.request(user % N_USERS)
            except (OSError, ConnectionError, ValueError):
                conn.close()
                status = 599
            user += 1
            local.append((time.perf_counter() - began, status))
        conn.close()
        with lock:
            results.extend(local)

    threads = [
        threading.Thread(target=worker, daemon=True)
        for _ in range(connections)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(duration_s)
    stop.set()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    return _summarize(results, elapsed, offered_qps=None)


def _summarize(
    results: List[Tuple[float, int]],
    elapsed_s: float,
    offered_qps: Optional[float],
) -> Dict[str, float]:
    """Fold raw (latency, status) samples into one sweep-point record."""
    latencies = [latency for latency, _ in results]
    statuses = [status for _, status in results]
    summary = percentile_summary(latencies)
    n_errors = sum(1 for status in statuses if status >= 400)
    point = {
        "achieved_qps": len(results) / elapsed_s,
        "error_rate": n_errors / len(results),
        **summary,
    }
    if offered_qps is not None:
        point["offered_qps"] = float(offered_qps)
    return point


def _warm(port: int) -> None:
    """Prime the service's score cache so the sweep measures warm serving."""
    conn = _Connection(port)
    for user in range(0, N_USERS, max(1, N_USERS // WARMUP_REQUESTS)):
        conn.request(user)
    conn.close()


def _bench(
    rates: List[float],
    duration_s: float,
    connections: int,
    slo_ms: float,
) -> Dict[str, float]:
    """Sweep the server; return the flat stats dict for its snapshot."""
    with tempfile.TemporaryDirectory() as tmp:
        _publish_bench_artifact(tmp)
        proc, port = _boot_server(tmp)
        try:
            _warm(port)
            curve = []
            for rate in rates:
                point = _run_open_loop(port, rate, duration_s, connections)
                curve.append(point)
                print(
                    f"  offered {rate:7.0f} qps -> achieved "
                    f"{point['achieved_qps']:7.0f} qps  "
                    f"p50 {point['p50_ms']:7.2f}ms  "
                    f"p99 {point['p99_ms']:8.2f}ms  "
                    f"errors {point['error_rate']:.1%}"
                )
            saturation = _run_saturation(port, duration_s, connections)
            print(
                f"  saturation         -> achieved "
                f"{saturation['achieved_qps']:7.0f} qps  "
                f"p50 {saturation['p50_ms']:7.2f}ms  "
                f"p99 {saturation['p99_ms']:8.2f}ms  "
                f"errors {saturation['error_rate']:.1%}"
            )
        finally:
            proc.terminate()
            proc.wait(timeout=30)

    stats: Dict[str, float] = {
        "sustained_qps": _sustained_qps(curve, saturation, slo_ms),
        "max_qps": saturation["achieved_qps"],
        "p50_ms": saturation["p50_ms"],
        "p95_ms": saturation["p95_ms"],
        "p99_ms": saturation["p99_ms"],
        "error_rate": saturation["error_rate"],
    }
    for point in curve:
        prefix = f"offered_{int(point['offered_qps'])}"
        stats[f"{prefix}_achieved_qps"] = point["achieved_qps"]
        stats[f"{prefix}_p50_ms"] = point["p50_ms"]
        stats[f"{prefix}_p99_ms"] = point["p99_ms"]
        stats[f"{prefix}_error_rate"] = point["error_rate"]
    return stats


def _sustained_qps(
    curve: List[Dict[str, float]],
    saturation: Dict[str, float],
    slo_ms: float,
) -> float:
    """The headline number: max throughput with p99 inside the SLO.

    Prefer the continuous saturation measure when its tail holds the
    SLO (bounded closed-loop concurrency usually does); otherwise fall
    back to the fastest open-loop point that met the SLO while
    achieving at least 90% of what was offered.
    """
    if saturation["p99_ms"] <= slo_ms and saturation["error_rate"] <= 0.01:
        return saturation["achieved_qps"]
    passing = [
        point["achieved_qps"]
        for point in curve
        if point["p99_ms"] <= slo_ms
        and point["error_rate"] <= 0.01
        and point["achieved_qps"] >= 0.9 * point["offered_qps"]
    ]
    return max(passing) if passing else 0.0


def _latest_stats(path: Optional[str]) -> Dict[str, float]:
    """The newest committed ``bench_loadgen`` stats of the server."""
    for snap in reversed(latest_snapshots("bench_loadgen", 50, path=path)):
        if (snap.get("context") or {}).get("frontend") == FRONTEND:
            return snap["stats"]
    raise SystemExit(
        "no bench_loadgen snapshot; "
        "run `python tools/load_bench.py --smoke` first"
    )


def run_check(slo_ms: float, path: Optional[str]) -> int:
    """The CI gate: sustain ``MIN_SUSTAINED_QPS`` with p99 in the SLO."""
    stats = _latest_stats(path)
    print(
        f"load gate: sustained {stats['sustained_qps']:.0f} qps "
        f"(floor {MIN_SUSTAINED_QPS:.0f} qps); p99 {stats['p99_ms']:.2f}ms "
        f"(SLO {slo_ms:.0f}ms)"
    )
    if stats["sustained_qps"] == 0 or stats["p99_ms"] > slo_ms:
        print("load gate: FAIL — p99 outside the deadline SLO")
        return 1
    if stats["sustained_qps"] < MIN_SUSTAINED_QPS:
        print(
            f"load gate: FAIL — sustained only "
            f"{stats['sustained_qps']:.0f} qps "
            f"(< {MIN_SUSTAINED_QPS:.0f} qps)"
        )
        return 1
    print("load gate: ok")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments, then sweep-and-record or check the gate."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="short CI sweep (fewer rates, shorter duration)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="check the newest committed snapshot; exit 1 below the "
        "sustained-QPS floor",
    )
    parser.add_argument(
        "--connections",
        type=int,
        default=8,
        help="concurrent client connections (default 8)",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="seconds per sweep point (default 4.0, smoke 1.5)",
    )
    parser.add_argument(
        "--slo-ms",
        type=float,
        default=250.0,
        help="p99 SLO in milliseconds (default 250)",
    )
    parser.add_argument(
        "--bench-path",
        default=None,
        help="trajectory file (default: repo-root BENCH_serving.json)",
    )
    args = parser.parse_args(argv)

    if args.check:
        return run_check(args.slo_ms, args.bench_path)

    if args.smoke:
        rates = [250.0, 500.0, 1000.0, 2000.0, 4000.0]
        duration = args.duration or 1.5
    else:
        rates = [250.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0]
        duration = args.duration or 4.0

    print("load bench: sweeping the asyncio server")
    stats = _bench(rates, duration, args.connections, args.slo_ms)
    record_snapshot(
        "bench_loadgen",
        stats,
        context={
            "frontend": FRONTEND,
            "mode": "smoke" if args.smoke else "full",
            "connections": args.connections,
            "duration_s": duration,
            "slo_ms": args.slo_ms,
            "n_users": N_USERS,
        },
        path=args.bench_path,
    )
    print(
        f"load bench: sustained {stats['sustained_qps']:.0f} qps "
        f"(max {stats['max_qps']:.0f} qps, p99 {stats['p99_ms']:.2f}ms)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
