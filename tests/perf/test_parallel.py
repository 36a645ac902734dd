"""Contracts of the order-preserving thread fan-out used per source."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.perf import default_workers, parallel_map


class TestParallelMap:
    def test_preserves_input_order(self):
        """results[i] belongs to items[i] no matter who finishes first."""
        items = list(range(24))
        results, seconds = parallel_map(lambda x: x * x, items, max_workers=4)
        assert results == [x * x for x in items]
        assert len(seconds) == len(items)

    def test_times_every_item_individually(self):
        def work(ms):
            deadline = threading.Event()
            deadline.wait(ms / 1000.0)
            return ms

        results, seconds = parallel_map(work, [5, 20], max_workers=2)
        assert results == [5, 20]
        assert all(s > 0.0 for s in seconds)
        # Per-item wall time, not the batch's: the slow item's clock must
        # dominate the fast item's.
        assert seconds[1] > seconds[0]

    def test_single_worker_is_sequential(self):
        """max_workers=1 must not spin up a pool (thread identity check)."""
        caller = threading.get_ident()
        threads = []
        results, _ = parallel_map(
            lambda x: threads.append(threading.get_ident()) or x,
            [1, 2, 3],
            max_workers=1,
        )
        assert results == [1, 2, 3]
        assert set(threads) == {caller}

    def test_empty_items(self):
        assert parallel_map(lambda x: x, []) == ([], [])

    def test_propagates_worker_exception(self):
        def explode(x):
            if x == 2:
                raise RuntimeError("boom on item 2")
            return x

        with pytest.raises(RuntimeError, match="boom on item 2"):
            parallel_map(explode, [1, 2, 3], max_workers=2)

    def test_matches_sequential_on_numpy_work(self, rng):
        """Thread fan-out must be bit-identical to the sequential loop."""
        blocks = [rng.normal(size=(16, 16)) for _ in range(6)]
        fn = lambda block: block @ block.T  # noqa: E731
        seq, _ = parallel_map(fn, blocks, max_workers=1)
        par, _ = parallel_map(fn, blocks, max_workers=4)
        for a, b in zip(seq, par):
            assert np.array_equal(a, b)

    def test_sequential_items_join_the_callers_trace(self):
        """A span opened by an item on the calling thread is recorded."""
        from repro.observability.tracer import Tracer

        tracer = Tracer()

        def work(x):
            with tracer.span("inner"):
                return x

        with tracer.trace("fit") as trace:
            parallel_map(work, [0], max_workers=1)
        assert trace.phase_totals()["inner"]["count"] == 1


class TestDefaultWorkers:
    def test_bounded_by_items(self):
        assert default_workers(1, max_workers=8) == 1

    def test_bounded_by_request(self):
        assert default_workers(100, max_workers=3) == 3

    def test_default_is_at_least_one(self):
        assert default_workers(0) >= 0
        assert default_workers(100) >= 1

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError, match="max_workers"):
            default_workers(4, max_workers=0)


class TestParallelMapProcesses:
    def test_preserves_input_order(self):
        """results[i] belongs to items[i] regardless of which child ran it."""
        from repro.perf import parallel_map_processes

        items = list(range(12))
        results, seconds = parallel_map_processes(_square, items, max_workers=2)
        assert results == [x * x for x in items]
        assert len(seconds) == len(items)
        assert all(s >= 0.0 for s in seconds)

    def test_matches_thread_pool_on_numpy_work(self, rng):
        """Process fan-out must be bit-identical to the thread fan-out."""
        from repro.perf import parallel_map, parallel_map_processes

        blocks = [rng.normal(size=(16, 16)) for _ in range(4)]
        thread_results, _ = parallel_map(_gram, blocks, max_workers=2)
        process_results, _ = parallel_map_processes(_gram, blocks, max_workers=2)
        for a, b in zip(thread_results, process_results):
            assert np.array_equal(a, b)

    def test_single_worker_runs_in_calling_process(self):
        from repro.perf import parallel_map_processes

        import os as _os

        results, _ = parallel_map_processes(_pid_of, [0], max_workers=1)
        assert results == [_os.getpid()]

    def test_unpicklable_fn_falls_back_to_threads(self):
        """A lambda cannot cross the process boundary; threads still answer."""
        from repro.perf import parallel_map_processes

        results, _ = parallel_map_processes(
            lambda x: x + 1, [1, 2, 3], max_workers=2
        )
        assert results == [2, 3, 4]

    def test_empty_items(self):
        from repro.perf import parallel_map_processes

        assert parallel_map_processes(_square, []) == ([], [])


def _square(x):
    return x * x


def _gram(block):
    return block @ block.T


def _pid_of(_):
    import os as _os

    return _os.getpid()
