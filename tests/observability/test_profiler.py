"""Continuous self-profiler: label attribution, lifecycle, HTTP export."""

from __future__ import annotations

import threading
import time

import pytest

import repro.observability.profiler as profiler_mod
from repro.observability.metrics import MetricsRegistry
from repro.observability.profiler import (
    ContinuousProfiler,
    current_label,
    global_profiler,
    pop_label,
    push_label,
)
from repro.observability.tracer import Tracer


class TestLabelStacks:
    def test_push_pop_current(self):
        ident = threading.get_ident()
        assert current_label(ident) is None
        push_label("outer")
        push_label("inner")
        assert current_label(ident) == "inner"
        pop_label()
        assert current_label(ident) == "outer"
        pop_label()
        assert current_label(ident) is None

    def test_pop_on_empty_stack_is_tolerated(self):
        pop_label()
        assert current_label(threading.get_ident()) is None


class TestLifecycle:
    def test_no_thread_and_no_tracking_until_started(self):
        before = {t.ident for t in threading.enumerate()}
        profiler = ContinuousProfiler()
        assert not profiler.running
        assert not profiler_mod.TRACKING
        assert {t.ident for t in threading.enumerate()} == before

    def test_start_stop_toggles_tracking(self):
        profiler = ContinuousProfiler(interval_s=0.005)
        try:
            profiler.start()
            assert profiler.running
            assert profiler_mod.TRACKING
        finally:
            profiler.stop()
        assert not profiler.running
        assert not profiler_mod.TRACKING

    def test_nested_profilers_refcount_tracking(self):
        first = ContinuousProfiler(interval_s=1.0)
        second = ContinuousProfiler(interval_s=1.0)
        try:
            first.start()
            second.start()
            first.stop()
            assert profiler_mod.TRACKING  # second still running
        finally:
            second.stop()
            first.stop()
        assert not profiler_mod.TRACKING

    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError, match="interval_s"):
            ContinuousProfiler(interval_s=0.0)

    def test_global_profiler_is_shared_and_unstarted(self):
        assert global_profiler() is global_profiler()
        assert not global_profiler().running


class TestAttribution:
    def test_samples_attributed_to_busy_span_label(self):
        profiler = ContinuousProfiler(interval_s=0.002)
        tracer = Tracer(MetricsRegistry())
        stop = threading.Event()

        def busy():
            with tracer.span("solver.hot_loop"):
                while not stop.is_set():
                    sum(range(500))

        worker = threading.Thread(target=busy)
        with profiler:
            worker.start()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                snap = profiler.snapshot()
                if any(
                    e["label"] == "solver.hot_loop"
                    for e in snap["entries"]
                ):
                    break
                time.sleep(0.01)
            stop.set()
            worker.join()
        snap = profiler.snapshot()
        labels = {entry["label"] for entry in snap["entries"]}
        assert "solver.hot_loop" in labels
        assert snap["total_samples"] > 0
        top = snap["entries"][0]
        assert 0.0 < top["share"] <= 1.0

    def test_unlabeled_threads_dropped_by_default(self):
        profiler = ContinuousProfiler()
        recorded = profiler.sample_once()
        snap = profiler.snapshot()
        assert all(
            entry["label"] != "<unlabeled>" for entry in snap["entries"]
        )
        assert recorded == 0 or snap["total_samples"] == recorded

    def test_include_unlabeled_keeps_other_threads(self):
        profiler = ContinuousProfiler(include_unlabeled=True)
        stop = threading.Event()
        worker = threading.Thread(target=stop.wait)
        worker.start()
        try:
            recorded = profiler.sample_once()
            assert recorded > 0
            labels = {
                entry["label"]
                for entry in profiler.snapshot()["entries"]
            }
            assert "<unlabeled>" in labels
        finally:
            stop.set()
            worker.join()

    def test_overflow_folds_into_other_bucket(self):
        profiler = ContinuousProfiler(
            include_unlabeled=True, max_entries=1
        )
        stop = threading.Event()
        workers = [
            threading.Thread(target=stop.wait) for _ in range(3)
        ]
        for w in workers:
            w.start()
        try:
            for _ in range(3):
                profiler.sample_once()
            snap = profiler.snapshot()
            frames = {entry["frame"] for entry in snap["entries"]}
            assert len(snap["entries"]) <= 2  # 1 row + the fold bucket
            if len(snap["entries"]) == 2:
                assert "<other>" in frames
        finally:
            stop.set()
            for w in workers:
                w.join()

    def test_registry_counter_tracks_samples(self):
        registry = MetricsRegistry()
        profiler = ContinuousProfiler(
            registry=registry, include_unlabeled=True
        )
        stop = threading.Event()
        worker = threading.Thread(target=stop.wait)
        worker.start()
        try:
            recorded = profiler.sample_once()
        finally:
            stop.set()
            worker.join()
        assert registry.counter("profiler.samples").value == recorded

    def test_reset_clears_counts(self):
        profiler = ContinuousProfiler(include_unlabeled=True)
        stop = threading.Event()
        worker = threading.Thread(target=stop.wait)
        worker.start()
        try:
            profiler.sample_once()
        finally:
            stop.set()
            worker.join()
        profiler.reset()
        snap = profiler.snapshot()
        assert snap["total_samples"] == 0
        assert snap["entries"] == []

    def test_frames_are_read_with_the_collector_paused(self, monkeypatch):
        # A collection inside sys._current_frames() can free a
        # threading.local whose cleanup takes the lock the call holds:
        # CPython 3.11 hangs, so sampling pauses the collector around it.
        import gc
        import sys

        seen = []

        def frames():
            seen.append(gc.isenabled())
            return {}

        monkeypatch.setattr(sys, "_current_frames", frames)
        assert gc.isenabled()
        ContinuousProfiler().sample_once()
        assert seen == [False]
        assert gc.isenabled()

    def test_render_table_mentions_totals(self):
        profiler = ContinuousProfiler()
        table = profiler.render_table()
        assert "0 samples" in table
