"""``serve-hot``: HTTP reads against ``python -m repro.serving serve``.

The server runs with its default flags (asyncio front end, batcher on,
telemetry on, 1024-entry ranking cache) on an n=5000 factored ``npy``
artifact fitted during set-up on a seeded block-model graph.  Traffic is
open loop: ``GET /v1/topk`` with k mixed over {5, 10, 20, 50} plus a share
of ``GET /v1/score``, users Zipf-skewed so most top-k requests hit the
ranking cache.  Transport, executor, batcher and cache do nearly all the
work and nothing is fitted while measuring.
"""

from __future__ import annotations

import bisect
import json
import os
import re
import resource
import signal
import subprocess
import sys
import time
import warnings
from collections import defaultdict

import numpy as np

import loadgen
from common import block_graph, hold_out, median, peak_rss_mb, percentile, ranking_problem
from tracing import load_spans, self_times

N_USERS = 5000
DEGREE = 12
PROBE_FRACTION = 0.1
RANK = 16
INNER = 8
OUTER = 2
SETUPS = 3
FIT_REPEATS = 6
HOT_SWAPS = 50
KS = (5, 10, 20, 50)
SCORE_SHARE = 0.1
# No trace of real traffic exists, so the traffic is set from measurements
# of this server (README, "Where the traffic figures come from").  The
# nominal rate is a quarter of the untraced capacity of ``serve`` on its
# default flags, measured on a 2-vCPU host at about 600 req/s: at half of
# its capacity, other tenants' load on the shared cores pushed the server
# close to saturation and the median latency spread by 36% across runs.
# The Zipf exponent puts the ranking cache's hit ratio near 0.6, the ratio
# probes of the same server saw.  The score share is a choice with no
# source.
ZIPF_EXPONENT = 1.15
NOMINAL_QPS = 150.0
WARMUP_S = 1.0
LATENCY_LIMIT_MS = 50.0
LADDER = (1.0, 2.0, 3.0, 3.5, 4.0, 4.5, 5.0)
LADDER_STEP_S = 1.5
SAMPLE_EVERY = 25

_clock = time.perf_counter
_BANNER = re.compile(r"on http://[^:]+:(\d+)")


class _Server:
    """One ``serve`` process (or its traced host) and how it started."""

    def __init__(self, ctx, store_dir, name, spans_path=None):
        # Injected delays (the self-test) reach the server through the
        # host too, so a bypass prediction is tested where requests run.
        host = ["--spans", spans_path] if spans_path else []
        for spec in ctx.delays:
            host += ["--inject-delay", spec]
        if host:
            command = [sys.executable, "-u", os.path.join(ctx.bench_dir, "serve_host.py"), *host]
        else:
            command = [sys.executable, "-u", "-m", "repro.serving"]
        command += ["serve", "--store", store_dir, "--port", "0", "--log-level", "WARNING"]
        self.log_path = ctx.path(f"{name}.log")
        began = _clock()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                command, cwd=ctx.root, stdout=log, stderr=subprocess.STDOUT
            )
        ctx.on_close(self.stop)
        self.port = self._wait_for_banner()
        self._wait_ready()
        self.ready_s = _clock() - began

    def _wait_for_banner(self) -> int:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            with open(self.log_path) as log:
                match = _BANNER.search(log.read())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        with open(self.log_path) as log:
            raise RuntimeError("server did not start:\n" + log.read()[-2000:])

    def _wait_ready(self) -> None:
        calls = [loadgen.Call(0.0, loadgen.get("/readyz", "ready"), None)]
        loadgen.run(self.port, calls, 1)
        if calls[0].status != 200:
            self.stop()
            raise RuntimeError(f"/readyz answered {calls[0].status}")

    def stop(self) -> int:
        """SIGTERM (graceful drain) and reap; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode


def _hot_swaps(artifact, service):
    """Seconds from a finished publish to a running service answering from it.

    Publishes the set-up model again as new versions and hot-swaps an
    in-process service onto each (verify, load, install), the path a
    running replica takes; the ``serve`` process keeps its version.
    """
    from repro.serving.artifacts import ArtifactStore

    store = ArtifactStore(artifact.store_dir, layout="npy")
    seconds = []
    for _ in range(HOT_SWAPS):
        store.publish(artifact.model, graph=artifact.training, meta={"workload": "serve-hot"})
        began = _clock()
        swapped = service.reload()
        service.top_k(0, KS[0])
        seconds.append(_clock() - began)
        if not swapped:
            raise RuntimeError("reload did not pick up the new version")
    return seconds


def _fit(training):
    """A factored fit of ``training``; returns the model and its seconds."""
    from repro.models.slampred import SlamPredH

    began = _clock()
    model = SlamPredH(factored=True, svd_rank=RANK, inner_iterations=INNER, outer_iterations=OUTER)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # rank-capped SVT warns by design
        model.fit_adjacency(training)
    return model, _clock() - began


class _Artifact:
    """Set-up: graph, probe split, factored fit and an ``npy`` publish."""

    def __init__(self, ctx, seed, index):
        from repro.serving.artifacts import ArtifactStore

        rng = np.random.default_rng(seed)
        full = block_graph(N_USERS, DEGREE, rng)
        self.training, self.probe_pairs, self.probe_labels = hold_out(full, PROBE_FRACTION, rng)
        self.model, self.fit_s = _fit(self.training)
        self.store_dir = ctx.path(f"store-{index}")
        ArtifactStore(self.store_dir, layout="npy").publish(
            self.model, graph=self.training, meta={"workload": "serve-hot", "seed": seed}
        )


def _plan(rng, rate, seconds, tag, metrics_every=None):
    """Seeded open-loop traffic: Zipf users, mixed k, some score reads."""
    count = max(1, int(rate * seconds))
    ranks = np.arange(1, N_USERS + 1, dtype=float) ** -ZIPF_EXPONENT
    order = rng.permutation(N_USERS)
    users = order[rng.choice(N_USERS, size=count, p=ranks / ranks.sum())]
    ks = rng.choice(KS, size=count)
    scores = rng.random(count) < SCORE_SHARE
    others = rng.integers(0, N_USERS - 1, size=count)
    calls = []
    for i in range(count):
        user, rid = int(users[i]), f"{tag}{i}"
        if scores[i]:
            other = int(others[i]) + (others[i] >= user)
            path = f"/v1/score?u={user}&v={other}"
            meta = ("score", user, other)
        else:
            path = f"/v1/topk?user={user}&k={int(ks[i])}"
            meta = ("topk", user, int(ks[i]))
        calls.append(loadgen.Call(i / rate, loadgen.get(path, rid), meta))
    if metrics_every:
        for j in range(int(seconds / metrics_every) + 1):
            calls.append(loadgen.Call(j * metrics_every, loadgen.get("/metrics", f"m{tag}{j}"), ("metrics",)))
        calls.sort(key=lambda call: call.due)
    return calls


class _Window:
    """Latency and lateness of one open-loop window, from the schedule."""

    def __init__(self, server, calls, connections):
        start = loadgen.run(server.port, calls, connections)
        self.calls = [c for c in calls if c.meta[0] != "metrics"]
        self.scrapes = [c for c in calls if c.meta[0] == "metrics"]
        ok = [c for c in self.calls if c.status == 200 and c.done is not None]
        # A failed, shed or unanswered call missed every latency limit.
        self.latency_ms = [
            1e3 * (c.done - (start + c.due)) if c.status == 200 and c.done is not None else float("inf")
            for c in self.calls
        ]
        self.lateness_ms = [1e3 * (c.sent - (start + c.due)) for c in self.calls if c.sent is not None]
        self.failed = len(self.calls) - len(ok)
        self.shed = sum(1 for c in self.calls if c.status == 503)
        span = max((c.done for c in ok), default=start) - start
        self.achieved_qps = len(ok) / span if span > 0 else 0.0
        self.start = start


def _check(window, reference, known_rows, outcome):
    """Every answer sound; every SAMPLE_EVERY-th equal to the in-process one."""
    for index, call in enumerate(window.calls):
        if call.status != 200 or call.done is None:
            outcome.fail(f"{call.meta}: status {call.status}")
            continue
        payload = json.loads(call.body)
        kind, user = call.meta[0], call.meta[1]
        if kind == "topk":
            k = call.meta[2]
            ranking = [(c["user"], c["score"]) for c in payload["candidates"]]
            known = set(known_rows[user])
            problem = ranking_problem(ranking, k, user, N_USERS, known)
            if problem is None and index % SAMPLE_EVERY == 0:
                expected = reference.top_k(user, k)
                if [c for c, _ in expected] != [c for c, _ in ranking] or not np.allclose(
                    [s for _, s in expected], [s for _, s in ranking], rtol=0, atol=1e-9
                ):
                    problem = f"user {user} k={k}: answer differs from in-process service"
        else:
            other = call.meta[2]
            problem = None
            if abs(payload["score"] - reference.score(user, other)) > 1e-9:
                problem = f"score({user},{other}) differs from in-process service"
            elif payload["known_link"] != reference.is_known_link(user, other):
                problem = f"known_link({user},{other}) differs from in-process service"
        outcome.check(problem is None, problem or "")


def run(ctx, outcome):
    """Measure or trace ``serve-hot``; fills ``outcome``."""
    from repro.evaluation.metrics import auc_score
    from repro.serving.service import LinkPredictionService

    connections = os.cpu_count() or 1
    rng = np.random.default_rng(ctx.seed)
    setups, artifacts, servers = [], [], []
    for index in range(1 if ctx.trace else SETUPS):
        began = _clock()
        artifact = _Artifact(ctx, ctx.seed, index)
        published = _clock()
        server = _Server(ctx, artifact.store_dir, f"server-{index}")
        setups.append(ctx.speed.since(began))
        artifact.cold_start_s = _clock() - published
        artifacts.append(artifact)
        servers.append(server)
        if index + 1 < (1 if ctx.trace else SETUPS):
            outcome.check(server.stop() == 0, "server did not drain cleanly")
    artifact, server = artifacts[-1], servers[-1]
    reference = LinkPredictionService(artifact.store_dir)
    known_rows = np.split(artifact.training.indices, artifact.training.indptr[1:-1])
    # Fits and hot swaps each run back to back, so that the probe's samples
    # cover the same seconds as the times they scale (speed.py).
    fits_began = _clock()
    fits = [_fit(artifact.training)[1] for _ in range(1 if ctx.trace else FIT_REPEATS)]
    fit_factor = ctx.speed.factor(fits_began, _clock())
    swaps_began = _clock()
    servable = _hot_swaps(artifact, reference)
    swap_factor = ctx.speed.factor(swaps_began, _clock())
    # The probe would share the cores with the server being measured.
    ctx.speed.pause()

    budget = ctx.seconds / 2 if ctx.trace else ctx.seconds
    _Window(server, _plan(rng, NOMINAL_QPS, WARMUP_S, "w"), connections)
    window = _Window(server, _plan(rng, NOMINAL_QPS, budget, "r"), connections)
    if ctx.trace:
        # Capacity of ``serve`` itself: the untraced server, not the host.
        outcome.layers["serving.sustained_qps"] = _ladder(server, rng, connections, outcome)
    outcome.check(server.stop() == 0, "server did not drain cleanly")
    _check(window, reference, known_rows, outcome)

    scores = reference.artifact.predictor.score_pairs(artifact.probe_pairs)
    outcome.note("set-ups at reference speed: " + ", ".join(f"{t:.3f}s" for t in setups))
    outcome.e2e.update(
        setup_s=median(setups),
        fit_s=median(fits) * fit_factor,
        servable_p50_s=median(servable) * swap_factor,
        # Measured, not scaled: a request spends much of its time in the
        # batcher's fixed window and in another process.
        latency_p50_ms=percentile(window.latency_ms, 50),
        heldout_auc=float(auc_score(scores, artifact.probe_labels)),
        peak_rss_mb=peak_rss_mb(resource.RUSAGE_CHILDREN),
    )
    outcome.note(
        f"serve-hot: {len(window.calls)} requests at {NOMINAL_QPS:g}/s on {connections} "
        f"connection(s); p50 {outcome.e2e['latency_p50_ms']:.2f} ms, p99 "
        f"{percentile(window.latency_ms, 99):.2f} ms, {window.failed} failed; "
        f"generator lateness p99 {percentile(window.lateness_ms, 99):.3f} ms; measured fit "
        f"{median(fits):.3f}s, hot swap {1e3 * median(servable):.2f} ms"
    )
    if ctx.trace:
        outcome.layers["serving.cold_start_s"] = median([a.cold_start_s for a in artifacts])
        _traced(ctx, outcome, artifact, reference, known_rows, rng, connections, window, budget)


def _ladder(server, rng, connections, outcome):
    """Highest ladder rate ``server`` sustains within the latency limit."""
    sustained = 0.0
    for step, factor in enumerate(LADDER):
        rate = NOMINAL_QPS * factor
        point = _Window(server, _plan(rng, rate, LADDER_STEP_S, f"l{step}-"), connections)
        quarter = max(1, len(point.latency_ms) // 4)
        backlog = median(point.latency_ms[-quarter:]) > 2 * median(point.latency_ms[:quarter]) + 1.0
        passed = (
            point.failed == 0
            and percentile(point.latency_ms, 99) <= LATENCY_LIMIT_MS
            and point.achieved_qps >= 0.95 * rate
            and not backlog
        )
        outcome.note(
            f"  ladder {rate:7.0f}/s: achieved {point.achieved_qps:7.0f}/s, p99 "
            f"{percentile(point.latency_ms, 99):8.2f} ms, failed {point.failed}"
            + ("" if passed else "  <- over the limit")
        )
        if not passed:
            break
        sustained = rate
    return sustained


def _traced(ctx, outcome, artifact, reference, known_rows, rng, connections, untraced, budget):
    spans_path = ctx.path("server-spans.json")
    server = _Server(ctx, artifact.store_dir, "server-traced", spans_path)
    _Window(server, _plan(rng, NOMINAL_QPS, WARMUP_S, "v"), connections)
    window = _Window(server, _plan(rng, NOMINAL_QPS, budget, "t", metrics_every=0.25), connections)
    _check(window, reference, known_rows, outcome)
    outcome.check(server.stop() == 0, "traced server did not drain cleanly")

    spans = load_spans(spans_path)
    ctx.recorder.spans.extend(spans)
    # Per-layer figures come from the measured window only, not from the
    # warm-up or the ladder (perf_counter is one system-wide clock here).
    window_end = max((c.done for c in window.calls if c.done is not None), default=window.start)
    spans = [s for s in spans if window.start <= s.start <= window_end]
    layers = outcome.layers
    layers["serving.shed"] = float(window.shed + untraced.shed)
    layers["loadgen.lateness_p99_ms"] = percentile(window.lateness_ms, 99)
    layers["request.latency_p99_ms"] = percentile(untraced.latency_ms, 99)
    untraced_p50 = percentile(untraced.latency_ms, 50)
    layers["tracing.overhead_pct"] = 100.0 * (percentile(window.latency_ms, 50) - untraced_p50) / untraced_p50
    layers.update(_scrape_layers(window.scrapes))
    _span_layers(spans, window, layers, outcome)


def _histogram(text, family):
    """Cumulative ``(upper bound, count)`` buckets of one histogram family."""
    pattern = re.compile(r"^\w*" + re.escape(family) + r'_bucket\{le="([^"]+)"\} (\S+)$', re.M)
    return [(float("inf") if le == "+Inf" else float(le), float(count)) for le, count in pattern.findall(text)]


def _bucket_quantile(before, after, q):
    """Quantile of the observations between two scrapes (bucket upper bound)."""
    deltas = [(bound, count - dict(before).get(bound, 0.0)) for bound, count in after]
    total = deltas[-1][1] if deltas else 0.0
    if total <= 0:
        return 0.0
    for bound, count in deltas:
        if count >= q * total:
            return bound if bound != float("inf") else deltas[-2][0]
    return deltas[-1][0]


def _scrape_layers(scrapes):
    bodies = [c.body.decode() for c in scrapes if c.status == 200]
    gauge = re.compile(r"^\w*serving_loop_lag_seconds (\S+)$", re.M)
    lags = [float(m) for body in bodies for m in gauge.findall(body)]
    wait = 0.0
    if len(bodies) >= 2:
        family = "serving_executor_wait_seconds"
        wait = _bucket_quantile(_histogram(bodies[0], family), _histogram(bodies[-1], family), 0.99)
    return {
        "serving.executor_wait_p99_ms": 1e3 * wait,
        "serving.loop_lag_p99_ms": 1e3 * percentile(lags, 99) if lags else 0.0,
    }


def _span_layers(spans, window, layers, outcome):
    """Per-request attribution from the traced server's spans."""
    selfs = self_times(spans)
    by_id = {s.span_id: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id].append(s)
    batches = sorted(
        (s for s in spans if s.name == "serving.top_k" and s.parent_id is None),
        key=lambda s: s.start,
    )
    starts = [b.start for b in batches]
    requests = {c.raw.split(b"X-Request-Id: ")[1].split(b"\r\n")[0].decode(): c for c in window.calls}
    roots = [s for s in spans if s.name == "serving.router" and s.parent_id is None and s.root_id in requests]
    per_request = defaultdict(float)
    waits = []

    def subtree(span, into):
        into[span.name] += selfs[span.span_id]
        for child in children.get(span.span_id, ()):
            subtree(child, into)

    for root in roots:
        tree = defaultdict(float)
        subtree(root, tree)
        for child in [s for s in _descendants(root, children) if s.name == "serving.batcher"]:
            batch = _linked_batch(child, batches, starts)
            if batch is None:
                continue
            inner = defaultdict(float)
            subtree(batch, inner)
            tree["serving.batcher"] -= batch.duration
            waits.append(child.duration - batch.duration)
            for name, value in inner.items():
                tree[name] += value
        for name, value in tree.items():
            per_request[name] += value
    n = max(1, len(roots))
    served = [requests[r.root_id] for r in roots if requests[r.root_id].done is not None]
    e2e = 1e3 * sum(c.done - (window.start + c.due) for c in served) / max(1, len(served))
    attributed = {name: 1e3 * value / n for name, value in per_request.items()}
    attributed["request (unattributed)"] = e2e - sum(attributed.values())
    outcome.attribution = {"unit": "ms per request", "root": "request (unattributed)", "end_to_end": e2e, "self": attributed}

    batch_sizes = [len(b.attrs["users"]) for b in batches]
    hit_ms, miss_ms = [], []
    gets = [s for s in spans if s.name == "serving.cache"]
    for batch in batches:
        missed = any(not s.attrs["hit"] for s in children.get(batch.span_id, ()) if s.name == "serving.cache")
        (miss_ms if missed else hit_ms).append(1e3 * selfs[batch.span_id])
    rows = [1e3 * selfs[s.span_id] for s in spans if s.name == "factored.rows"]
    scores = [1e3 * selfs[s.span_id] for s in spans if s.name == "serving.score"]
    router = [1e3 * selfs[r.span_id] for r in roots]
    layers.update({
        "serving.router_ms": float(np.mean(router)) if router else 0.0,
        "serving.batcher_wait_ms": 1e3 * float(np.mean(waits)) if waits else 0.0,
        "serving.batch_size_mean": float(np.mean(batch_sizes)) if batch_sizes else 0.0,
        "serving.cache_hit_ratio": sum(1 for s in gets if s.attrs["hit"]) / len(gets) if gets else 0.0,
        "serving.top_k_hit_ms": float(np.mean(hit_ms)) if hit_ms else 0.0,
        "serving.top_k_miss_ms": float(np.mean(miss_ms)) if miss_ms else 0.0,
        "serving.score_ms": float(np.mean(scores)) if scores else 0.0,
        "factored.rows_ms": float(np.mean(rows)) if rows else 0.0,
        "request.unattributed_ms": attributed["request (unattributed)"],
    })
    outcome.note(
        f"traced: {len(roots)} requests attributed, {len(batches)} scoring passes, "
        f"{len(spans)} server spans"
    )


def _descendants(span, children):
    stack = list(children.get(span.span_id, ()))
    while stack:
        node = stack.pop()
        yield node
        stack.extend(children.get(node.span_id, ()))


def _linked_batch(submit, batches, starts):
    """The scoring pass that answered one ``MicroBatcher.submit``."""
    user, k = submit.attrs["user"], submit.attrs["k"]
    for batch in batches[bisect.bisect_left(starts, submit.start):]:
        if batch.start > submit.end:
            break
        if batch.end <= submit.end and any(
            u == user and kk == k for u, kk in zip(batch.attrs["users"], batch.attrs["ks"])
        ):
            return batch
    return None
