"""``stream-churn``: link deltas and reads beside back-to-back refit ticks.

One process hosts a :class:`StreamingPipeline` (WAL, factored
``WarmRefitter``, ``npy`` artifact store) that hot-swaps a
:class:`LinkPredictionService`.  Set-up seeds it with an n=5000
block-model graph and holds out a probe split.  While measuring, one
generator thread submits ``link_add`` deltas and uniform-user ``top_k``
reads on a fixed open-loop schedule, and the main thread runs ticks back
to back: apply -> snapshot -> refit -> publish -> reload.  Every publish
invalidates the ranking cache, so reads take the miss path.
"""

from __future__ import annotations

import bisect
import os
import threading
import time
import warnings
from collections import defaultdict
from contextlib import nullcontext

import numpy as np
from scipy import sparse

from common import block_graph, hold_out, median, peak_rss_mb, percentile, ranking_problem
from tracing import breakdown, self_times

N_USERS = 5000
DEGREE = 12
PROBE_FRACTION = 0.1
SETUPS = 3
WRITE_QPS = 20.0
READ_QPS = 100.0
TOP_K = 10
# A fixed iteration budget per refit (the tolerance never stops it early),
# so every tick does the same solver work whichever seed drew the graph.
REFIT = dict(inner_iterations=10, outer_iterations=2, tolerance=1e-12)

_clock = time.perf_counter


class _Stream:
    """Set-up: a seeded pipeline that has published its first version."""

    def __init__(self, ctx, seed, index):
        from repro.serving.artifacts import ArtifactStore
        from repro.serving.service import LinkPredictionService
        from repro.streaming import StreamingPipeline, link_add
        from repro.streaming.refit import WarmRefitter
        from repro.streaming.wal import WriteAheadLog

        rng = np.random.default_rng(seed)
        full = block_graph(N_USERS, DEGREE, rng)
        training, self.probe_pairs, self.probe_labels = hold_out(full, PROBE_FRACTION, rng)
        directory = ctx.path(f"stream-{index}")
        # The seed graph enters as acknowledged deltas, so recovery and
        # the digest check cover it too; fsync is moot for a log that is
        # closed before the pipeline opens it.
        seed_log = WriteAheadLog(os.path.join(directory, "pipeline", "wal"), fsync=False)
        upper = sparse.triu(training, k=1).tocoo()
        self.acked = {}
        for u, v in zip(upper.row.tolist(), upper.col.tolist()):
            seq = seed_log.append(link_add(u, v).encode())
            self.acked[seq] = (u, v, 1.0)
        seed_log.sync()
        seed_log.close()
        self.store = ArtifactStore(os.path.join(directory, "store"), layout="npy")
        self.refitter = WarmRefitter(factored=True, **REFIT)
        self.pipeline = StreamingPipeline(
            os.path.join(directory, "pipeline"),
            n_users=N_USERS,
            store=self.store,
            refitter=self.refitter,
        )
        ctx.on_close(self.close)
        self.pipeline.tick()
        self.service = LinkPredictionService(self.store)
        self.pipeline.service = self.service
        self.blocked = {tuple(p) for p in self.probe_pairs}
        self.refit_seconds = []
        refitter = self.refitter

        def timed_refit(*args, **kwargs):
            # Looks the method up on the class at call time, so the traced
            # half sees the benchmark's span wrapper as well.
            began = _clock()
            try:
                return type(refitter).refit(refitter, *args, **kwargs)
            finally:
                self.refit_seconds.append(_clock() - began)

        refitter.refit = timed_refit

    def close(self):
        self.pipeline.close()


class _Window:
    """One open-loop window: generator thread plus the tick loop."""

    def __init__(self, stream, rng, seconds, recorder=None):
        from repro.streaming import link_add

        n_writes = int(WRITE_QPS * seconds)
        n_reads = int(READ_QPS * seconds)
        ops = [(i / WRITE_QPS, "write") for i in range(n_writes)]
        ops += [((j + 0.5) / READ_QPS, "read") for j in range(n_reads)]
        ops.sort()
        pairs = []
        while len(pairs) < n_writes:
            u, v = sorted(int(x) for x in rng.integers(0, N_USERS, size=2))
            if u != v and (u, v) not in stream.blocked:
                pairs.append((u, v, float(rng.integers(1, 4))))
        users = rng.integers(0, N_USERS, size=n_reads).tolist()
        self.writes, self.reads, self.ticks, self.errors = [], [], [], []
        first_refit = len(stream.refit_seconds)
        start = _clock() + 0.02
        stop = threading.Event()

        def generate():
            write_index = read_index = 0
            for due, kind in ops:
                scheduled = start + due
                delay = scheduled - _clock()
                if delay > 0:
                    time.sleep(delay)
                sent = _clock()
                try:
                    if kind == "write":
                        u, v, w = pairs[write_index]
                        write_index += 1
                        seq = stream.pipeline.submit(link_add(u, v, w))
                        self.writes.append((scheduled, sent, _clock(), seq, (u, v, w)))
                    else:
                        user = users[read_index]
                        read_index += 1
                        ranking = stream.service.top_k(user, TOP_K)
                        self.reads.append((scheduled, sent, _clock(), user, ranking))
                except Exception as exc:  # counted as a failed operation
                    self.errors.append((kind, f"{kind}: {type(exc).__name__}: {exc}"))
            stop.set()

        generator = threading.Thread(target=generate, name="perfbench-generator")
        generator.start()
        try:
            while not stop.is_set():
                self._tick(stream, recorder)
            # Drain: one more tick publishes every delta acknowledged so far.
            self._tick(stream, recorder)
        finally:
            generator.join()
        self.start = start
        self.refits = stream.refit_seconds[first_refit:]

    def _tick(self, stream, recorder):
        began = _clock()
        with recorder.span("tick") if recorder is not None else nullcontext():
            result = stream.pipeline.tick()
        done = _clock()
        manifest = stream.service.artifact.manifest
        served = int(manifest.get("meta", {}).get("applied_seq", -1))
        self.ticks.append((began, done, served, result))

    def servable(self):
        """Seconds from each delta's scheduled submit to a reload covering it."""
        done = [t[1] for t in self.ticks]
        served = [t[2] for t in self.ticks]
        latencies = []
        for scheduled, _, acked, seq, _ in self.writes:
            index = bisect.bisect_left(done, acked)
            while index < len(done) and served[index] < seq:
                index += 1
            if index < len(done):
                latencies.append(done[index] - scheduled)
        return latencies


def _check(stream, windows, outcome):
    """Reads sound; every tick published; state equals an independent fold."""
    from repro.streaming.deltas import StreamState, link_add

    for window in windows:
        for _, error in window.errors:
            outcome.fail(error)
        for _, _, _, user, ranking in window.reads:
            problem = ranking_problem(ranking, TOP_K, user, N_USERS)
            outcome.check(problem is None, problem or "")
        for _, _, _, result in window.ticks:
            outcome.check(
                result["published_version"] is not None,
                f"tick {result['tick']} did not publish: {stream.pipeline.last_refit_error}",
            )
        outcome.check(len(window.servable()) == len(window.writes), "an acknowledged delta never became servable")
        for _, _, _, seq, delta in window.writes:
            stream.acked[seq] = delta
    links = {}
    for seq in sorted(stream.acked):
        u, v, w = stream.acked[seq]
        links[(u, v)] = w
    state = stream.pipeline.state
    outcome.check(state.n_links == len(links), f"state has {state.n_links} links, fold has {len(links)}")
    outcome.check(
        all(state.link_weight(u, v) == w for (u, v), w in links.items()),
        "state link weights differ from the fold of acknowledged deltas",
    )
    last = max(stream.acked)
    oracle = StreamState(N_USERS)
    keys = sorted(links)
    for offset, (u, v) in enumerate(keys):
        oracle.apply(last if offset == len(keys) - 1 else offset + 1, link_add(u, v, links[(u, v)]))
    outcome.check(oracle.digest() == state.digest(), "state digest differs from the fold of acknowledged deltas")
    meta = stream.service.artifact.manifest.get("meta", {})
    outcome.check(
        int(meta.get("applied_seq", -1)) == state.applied_seq == last,
        f"served applied_seq {meta.get('applied_seq')} vs state {state.applied_seq} vs last ack {last}",
    )


def run(ctx, outcome):
    """Measure or trace ``stream-churn``; fills ``outcome``."""
    from repro.evaluation.metrics import auc_score

    rng = np.random.default_rng(ctx.seed)
    setups, streams = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # rank-capped SVT warns by design
        for index in range(1 if ctx.trace else SETUPS):
            began = _clock()
            streams.append(_Stream(ctx, ctx.seed, index))
            setups.append(ctx.speed.since(began))
        stream = streams[-1]
        budget = ctx.seconds / 2 if ctx.trace else ctx.seconds
        window = _Window(stream, rng, budget)
        windows = [window]
        if ctx.trace:
            ctx.install_layers()
            traced = _Window(stream, rng, budget, ctx.recorder)
            ctx.uninstall_layers()
            windows.append(traced)
    _check(stream, windows, outcome)
    # A failed read or submit missed every latency limit.
    lost = [kind for kind, _ in window.errors]
    # From the schedule, a read includes the wait for the interpreter lock
    # behind the tick loop; about 40% of reads wait, so the median sits on
    # the knee of that wait and jumps between runs.  From the call, it is
    # the read path itself (lookup, rows, ranking), which is what the
    # end-to-end median reports.
    reads = [1e3 * (done - scheduled) for scheduled, _, done, _, _ in window.reads]
    reads += [float("inf")] * lost.count("read")
    calls = [1e3 * (done - sent) for _, sent, done, _, _ in window.reads]
    calls += [float("inf")] * lost.count("read")
    acks = [1e3 * (acked - scheduled) for scheduled, _, acked, _, _ in window.writes]
    acks += [float("inf")] * lost.count("write")
    scores = stream.service.artifact.predictor.score_pairs(stream.probe_pairs)
    servable = median(window.servable())
    # CPU-bound times at reference speed (speed.py).
    speed = ctx.speed.factor(window.start, window.ticks[-1][1])
    outcome.note("set-ups at reference speed: " + ", ".join(f"{t:.3f}s" for t in setups))
    outcome.e2e.update(
        setup_s=median(setups),
        fit_s=median(window.refits) * speed,
        servable_p50_s=servable * speed,
        latency_p50_ms=percentile(calls, 50) * speed,
        heldout_auc=float(auc_score(scores, stream.probe_labels)),
        peak_rss_mb=peak_rss_mb(),
    )
    outcome.note(
        f"stream-churn: {len(window.writes)} deltas at {WRITE_QPS:g}/s and {len(window.reads)} "
        f"reads at {READ_QPS:g}/s beside {len(window.ticks)} ticks; measured refit median "
        f"{median(window.refits):.3f}s; servable p50 {servable:.3f}s; read p50 "
        f"{percentile(calls, 50):.3f} ms from the call, {percentile(reads, 50):.3f} ms "
        f"from the schedule"
    )
    if ctx.trace:
        layers = outcome.layers
        layers["request.latency_p99_ms"] = percentile(reads, 99)
        layers["streaming.ack_p50_ms"] = percentile(acks, 50)
        layers["streaming.ack_p99_ms"] = percentile(acks, 99)
        layers["streaming.servable_p99_s"] = percentile(window.servable(), 99)
        layers["tracing.overhead_pct"] = 100.0 * (median(traced.servable()) - servable) / servable
        _span_layers(ctx.recorder.spans, traced, layers, outcome)


def _span_layers(spans, window, layers, outcome):
    selfs = self_times(spans)
    tree = breakdown(spans, selfs, "tick", "s per tick")
    for name in (
        "streaming.apply",
        "streaming.snapshot",
        "streaming.state",
        "streaming.refit",
        "factored.gradient",
        "factored.svt",
        "optim.entry_prox",
        "persistence.publish",
        "persistence.load",
        "serving.reload",
    ):
        layers[f"{name}_s"] = tree["self"].get(name, 0.0)
    layers["tick.unattributed_s"] = tree["self"].get("tick", 0.0)
    outcome.attribution = tree
    others = [s for s in spans if s.span_id not in tree["members"]]

    def call_mean_ms(name):
        values = [selfs[s.span_id] for s in others if s.name == name]
        return 1e3 * sum(values) / len(values) if values else 0.0

    layers["streaming.submit_ms"] = call_mean_ms("streaming.submit")
    layers["streaming.wal_append_ms"] = call_mean_ms("streaming.wal_append")
    layers["factored.rows_ms"] = call_mean_ms("factored.rows")
    children = defaultdict(list)
    for s in others:
        if s.parent_id is not None:
            children[s.parent_id].append(s)
    hit_ms, miss_ms, attributed = [], [], []
    for read in (s for s in others if s.name == "serving.top_k" and s.parent_id is None):
        kids = children.get(read.span_id, ())
        missed = any(k.name == "serving.cache" and not k.attrs["hit"] for k in kids)
        (miss_ms if missed else hit_ms).append(1e3 * selfs[read.span_id])
        attributed.append(read.duration)
    gets = [s for s in others if s.name == "serving.cache"]
    layers["serving.top_k_hit_ms"] = float(np.mean(hit_ms)) if hit_ms else 0.0
    layers["serving.top_k_miss_ms"] = float(np.mean(miss_ms)) if miss_ms else 0.0
    layers["serving.cache_hit_ratio"] = sum(1 for s in gets if s.attrs["hit"]) / len(gets) if gets else 0.0
    reads = [done - scheduled for scheduled, _, done, _, _ in window.reads]
    layers["request.unattributed_ms"] = (
        1e3 * (float(np.mean(reads)) - float(np.mean(attributed))) if reads and attributed else 0.0
    )
    layers["loadgen.lateness_p99_ms"] = percentile(
        [1e3 * (sent - scheduled) for scheduled, sent, *_ in window.reads + window.writes], 99
    )
    layers["streaming.deltas_per_tick"] = float(np.mean([t[3]["applied"] for t in window.ticks]))
    layers["streaming.publishes"] = float(sum(1 for t in window.ticks if t[3]["published_version"] is not None))
