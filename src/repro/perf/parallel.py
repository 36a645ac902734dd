"""Order-preserving thread and process fan-out for per-item work.

The K-source intimacy pipeline is embarrassingly parallel: each source's
feature extraction and adapted-slice transfer touches only that source's
matrices, and the heavy lifting is numpy/BLAS code that releases the GIL.
A thread pool therefore gives real concurrency without any of the
pickling or memory-duplication cost of processes.

:func:`parallel_map` preserves input order, times every item
individually (so per-source wall time can be published through the
metrics registry), degenerates to a plain sequential loop for a single
item or ``max_workers=1`` (bit-identical semantics, no pool spin-up),
and propagates the first worker exception to the caller.

:func:`parallel_map_processes` is the same contract over a
**process** pool, for work that holds the GIL (pure-Python loops,
scipy code paths that never release it) — the sharded solver fans its
per-shard fits out here so shard count, not user count, bounds the
wall clock on multi-core machines.  Function and items must be
picklable; on platforms where process pools cannot start (sandboxes
without semaphores) it degrades to the thread pool, which is
result-identical because workers are required to be pure functions of
their item.

Both fan-outs snapshot the caller's **runtime context** — request id,
run id and active trace context, via
:func:`~repro.observability.propagation.inject_runtime_context` — and
re-bind it inside every worker (thread *or* child process), so log
records and spans emitted by per-item work carry the same correlation
ids as the request that triggered it.  The payload is a small dict of
strings; pickling it to children costs nothing measurable.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from itertools import repeat
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.observability.propagation import (
    activate_runtime_context,
    inject_runtime_context,
)

T = TypeVar("T")
R = TypeVar("R")

_DEFAULT_WORKER_CAP = 8


def default_workers(n_items: int, max_workers: Optional[int] = None) -> int:
    """Worker count for ``n_items`` tasks: bounded by items, cores and cap."""
    if max_workers is not None:
        if int(max_workers) < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        return min(n_items, int(max_workers))
    return max(1, min(n_items, os.cpu_count() or 1, _DEFAULT_WORKER_CAP))


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    max_workers: Optional[int] = None,
) -> Tuple[List[R], List[float]]:
    """Apply ``fn`` to every item concurrently; returns (results, seconds).

    ``results[i]`` corresponds to ``items[i]`` regardless of completion
    order, and ``seconds[i]`` is that item's own wall time (not the
    batch's).  With one item or ``max_workers=1`` the items run
    sequentially on the calling thread, in the caller's own context.
    Each pool thread runs under the submitting thread's runtime context
    (request id / trace), so per-item logs and spans stay correlated
    with the triggering request.
    """
    items = list(items)
    seconds = [0.0] * len(items)

    def timed(index_item: Tuple[int, T]) -> R:
        index, item = index_item
        start = time.perf_counter()
        result = fn(item)
        seconds[index] = time.perf_counter() - start
        return result

    def rebound(index_item: Tuple[int, T]) -> R:
        with activate_runtime_context(runtime):
            return timed(index_item)

    if not items:
        return [], []
    workers = default_workers(len(items), max_workers)
    if workers == 1:
        # The caller's own context is live here: spans opened by an item
        # join the caller's trace directly.
        results = [timed(job) for job in enumerate(items)]
    else:
        runtime = inject_runtime_context()
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(rebound, enumerate(items)))
    return results, seconds


def _timed_call(
    fn: Callable[[T], R], item: T, runtime=None
) -> Tuple[R, float]:
    """Run one item in a worker process, returning (result, seconds).

    Module-level so it pickles; the item's own wall time is measured
    inside the child, excluding fork/dispatch overhead.  ``runtime`` is
    the parent's serialized runtime context (request id / run id /
    trace); it is re-bound around ``fn`` so the child's log records and
    bridged spans correlate with the originating request.
    """
    start = time.perf_counter()
    with activate_runtime_context(runtime):
        result = fn(item)
    return result, time.perf_counter() - start


def parallel_map_processes(
    fn: Callable[[T], R],
    items: Sequence[T],
    max_workers: Optional[int] = None,
) -> Tuple[List[R], List[float]]:
    """Apply ``fn`` to every item across processes; returns (results, seconds).

    Same contract as :func:`parallel_map` — ``results[i]`` corresponds to
    ``items[i]`` regardless of completion order, ``seconds[i]`` is that
    item's own (in-child) wall time, one item or ``max_workers=1`` runs
    sequentially in the calling process — but workers are separate
    interpreters, so Python-level work scales past the GIL.  ``fn`` and
    every item must be picklable, and ``fn`` must be a pure function of
    its item: results are collected by input index, which is what makes
    the output independent of worker scheduling.  The caller's runtime
    context travels to each child in the task payload and is re-bound
    there via contextvars, so cross-process work keeps its request and
    trace correlation.  When the platform cannot start a process pool at
    all, the call falls back to the thread pool (purity makes that
    result-identical).
    """
    items = list(items)
    if not items:
        return [], []
    workers = default_workers(len(items), max_workers)
    runtime = inject_runtime_context()
    if workers == 1:
        pairs = [_timed_call(fn, item, runtime) for item in items]
        return [r for r, _ in pairs], [s for _, s in pairs]
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            pairs = list(
                pool.map(_timed_call, repeat(fn), items, repeat(runtime))
            )
    except (
        OSError,
        PermissionError,
        BrokenProcessPool,
        pickle.PicklingError,
        AttributeError,  # local functions/lambdas surface as this
        TypeError,  # unpicklable closed-over state (locks, handles)
    ):
        # No usable process primitives (restricted sandbox), the pool died
        # before producing results, or fn/items cannot cross the process
        # boundary: the thread pool computes the same answers for pure fn,
        # just without GIL-free scaling.
        return parallel_map(fn, items, max_workers)
    return [r for r, _ in pairs], [s for _, s in pairs]
