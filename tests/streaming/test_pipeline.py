"""The streaming pipeline: ticks, recovery, warm starts, degraded entry."""

import os

import numpy as np
import pytest

from repro.observability.metrics import MetricsRegistry
from repro.reliability.breaker import CircuitBreaker
from repro.reliability.checkpoints import CheckpointManager
from repro.serving.artifacts import ArtifactStore
from repro.serving.service import LinkPredictionService
from repro.streaming import StreamingPipeline, WarmRefitter, link_add, link_remove
from repro.streaming.deltas import StreamState
from repro.streaming.refit import WarmRefitter as Refitter
from repro.streaming.wal import WriteAheadLog


def _quick_refitter(**kwargs):
    return WarmRefitter(inner_iterations=6, outer_iterations=2, **kwargs)


class TestTick:
    def test_ingest_refit_publish_reload(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        pipeline = StreamingPipeline(
            str(tmp_path / "stream"),
            n_users=8,
            store=store,
            refitter=_quick_refitter(),
        )
        for u, v in [(0, 1), (1, 2), (2, 3)]:
            pipeline.submit(link_add(u, v))
        summary = pipeline.tick()
        assert summary["applied"] == 3
        assert summary["published_version"] == 1
        service = LinkPredictionService(store)
        pipeline.service = service
        pipeline.submit(link_add(4, 5))
        pipeline.tick()
        assert service.version == 2
        stats = pipeline.stats()
        assert stats["acked_seq"] == stats["applied_seq"] == stats["published_seq"]

    def test_served_version_contains_every_acked_delta(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        pipeline = StreamingPipeline(
            str(tmp_path / "stream"),
            n_users=8,
            store=store,
            refitter=_quick_refitter(),
        )
        pipeline.submit(link_add(0, 1))
        pipeline.tick()
        service = LinkPredictionService(store)
        pipeline.service = service
        for u, v in [(1, 2), (2, 3), (3, 4)]:
            seq = pipeline.submit(link_add(u, v))
            pipeline.tick()
            meta = service.artifact.manifest.get("meta", {})
            assert int(meta.get("applied_seq", -1)) >= seq

    def test_staleness_zero_when_caught_up(self, tmp_path):
        pipeline = StreamingPipeline(
            str(tmp_path), n_users=6, refitter=_quick_refitter()
        )
        pipeline.submit(link_add(0, 1))
        assert pipeline.update_staleness() > 0.0
        pipeline.tick()
        assert pipeline.update_staleness() == 0.0

    def test_snapshot_compacts_wal(self, tmp_path):
        pipeline = StreamingPipeline(
            str(tmp_path),
            n_users=6,
            refitter=_quick_refitter(),
            segment_max_bytes=256,
        )
        for i in range(20):
            pipeline.submit(link_add(i % 5, 5))
        pipeline.apply_pending()
        pipeline.snapshot()
        assert pipeline.wal.first_seq > 1
        # Replay after compaction still reconstructs from the snapshot.
        pipeline.close()
        recovered = StreamingPipeline(str(tmp_path), n_users=6)
        assert recovered.state.digest() == pipeline.state.digest()


class TestTickCost:
    """A tick's bookkeeping grows with its new deltas, not the history."""

    def _seeded(self, tmp_path, records=5000, n_users=24):
        seed_log = WriteAheadLog(
            os.path.join(str(tmp_path), "wal"), fsync=False
        )
        for i in range(records):
            delta = link_add(i % (n_users - 1), n_users - 1, 1 + i % 3)
            seed_log.append(delta.encode())
        seed_log.close()
        pipeline = StreamingPipeline(
            str(tmp_path),
            n_users=n_users,
            store=ArtifactStore(os.path.join(str(tmp_path), "store")),
            refitter=_quick_refitter(),
        )
        pipeline.tick()
        return pipeline

    def test_apply_hashes_only_new_records(self, tmp_path, hashed_frames):
        pipeline = self._seeded(tmp_path)
        for i in range(10):
            pipeline.submit(link_add(i, i + 1, 2.0))
        hashed_frames.clear()
        assert pipeline.apply_pending() == 10
        assert hashed_frames == list(range(5001, 5011))

    def test_tick_builds_csr_and_digest_once(self, tmp_path, monkeypatch):
        pipeline = self._seeded(tmp_path, records=200)
        builds = {"csr": 0, "digest": 0}

        def counting(name, method):
            def wrapper(self):
                builds[name] += 1
                return method(self)

            return wrapper

        monkeypatch.setattr(
            StreamState, "_build_csr", counting("csr", StreamState._build_csr)
        )
        monkeypatch.setattr(
            StreamState,
            "_compute_digest",
            counting("digest", StreamState._compute_digest),
        )
        pipeline.submit(link_add(0, 5, 3.0))
        summary = pipeline.tick()
        assert summary["applied"] == 1
        assert summary["published_version"] == 2
        assert builds == {"csr": 1, "digest": 1}
        pipeline.tick()  # nothing new: the version's CSR and digest stand
        assert builds == {"csr": 1, "digest": 1}


class TestRecovery:
    def test_recovery_is_digest_identical(self, tmp_path):
        home = str(tmp_path / "stream")
        pipeline = StreamingPipeline(home, n_users=10, refitter=_quick_refitter())
        deltas = [link_add(0, 1), link_add(1, 2), link_remove(0, 1), link_add(3, 4, 2.0)]
        for delta in deltas:
            pipeline.submit(delta)
        pipeline.apply_pending()
        expected = pipeline.state.digest()
        pipeline.close()  # no snapshot: recovery must replay the WAL
        recovered = StreamingPipeline(home, n_users=10)
        assert recovered.state.digest() == expected

    def test_corrupt_snapshot_falls_back_to_full_replay(self, tmp_path):
        home = str(tmp_path / "stream")
        pipeline = StreamingPipeline(home, n_users=6, snapshot_every=1,
                                     refitter=_quick_refitter())
        pipeline.submit(link_add(0, 1))
        pipeline.apply_pending()
        pipeline.snapshot()
        expected = pipeline.state.digest()
        pipeline.close()
        raw = open(pipeline.state_path, "rb").read()
        with open(pipeline.state_path, "wb") as handle:
            handle.write(raw[: len(raw) // 3])  # torn snapshot
        recovered = StreamingPipeline(home, n_users=6)
        assert recovered.state.digest() == expected


class TestWarmStart:
    def test_dense_refit_warm_starts_from_checkpoint(self, tmp_path):
        manager = CheckpointManager(str(tmp_path / "ckpt"))
        refitter = _quick_refitter(checkpoint_manager=manager)
        pipeline = StreamingPipeline(
            str(tmp_path / "stream"), n_users=8, refitter=refitter
        )
        pipeline.submit(link_add(0, 1))
        pipeline.tick()
        assert refitter.last_warm_source == "cold"
        assert manager.latest() is not None
        pipeline.submit(link_add(1, 2))
        pipeline.tick()
        assert refitter.last_warm_source == "checkpoint"

    def test_factored_refit_warm_starts_from_estimate(self, tmp_path):
        refitter = _quick_refitter(factored=True)
        pipeline = StreamingPipeline(
            str(tmp_path / "stream"), n_users=8, refitter=refitter
        )
        pipeline.submit(link_add(0, 1))
        pipeline.tick()
        assert refitter.last_warm_source == "cold"
        pipeline.submit(link_add(1, 2))
        pipeline.tick()
        assert refitter.last_warm_source == "estimate"

    def test_svt_engine_retained_across_refits(self, tmp_path):
        refitter = _quick_refitter()
        pipeline = StreamingPipeline(
            str(tmp_path / "stream"), n_users=8, refitter=refitter
        )
        pipeline.submit(link_add(0, 1))
        pipeline.tick()
        engine = refitter._svt_engine
        pipeline.submit(link_add(1, 2))
        pipeline.tick()
        assert refitter._svt_engine is engine


class _FailingRefitter(Refitter):
    """A refitter that always blows up (breaker fodder)."""

    def refit(self, adjacency, intimacy=None, tracer=None):
        raise RuntimeError("synthetic refit failure")


class TestDegradedEntry:
    def test_refit_breaker_opens_and_engages_degraded(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        seed = StreamingPipeline(
            str(tmp_path / "seed"), n_users=8, store=store,
            refitter=_quick_refitter(),
        )
        for u, v in [(0, 1), (1, 2), (0, 2), (2, 3)]:
            seed.submit(link_add(u, v))
        seed.tick()
        service = LinkPredictionService(store, enable_degraded_tier=True)
        clock = {"t": 0.0}
        pipeline = StreamingPipeline(
            str(tmp_path / "stream"),
            n_users=8,
            store=store,
            service=service,
            refitter=_FailingRefitter(),
            refit_breaker=CircuitBreaker("test.refit", failure_threshold=2,
                                         recovery_timeout=1.0,
                                         clock=lambda: clock["t"]),
        )
        pipeline.submit(link_add(4, 5))
        assert pipeline.tick()["published_version"] is None
        assert not service.degraded_active  # breaker still closed
        pipeline.tick()
        assert pipeline.refit_breaker.state == "open"
        assert service.degraded_active
        # Degraded answers flow from the common-neighbor tier.
        assert service.top_k(0, k=2)
        # Past the recovery timeout a healthy refit closes the breaker
        # and disengages the tier.
        pipeline.refitter = _quick_refitter()
        clock["t"] += 10.0
        pipeline.tick()
        assert not service.degraded_active

    def test_metrics_exported(self, tmp_path):
        registry = MetricsRegistry()
        pipeline = StreamingPipeline(
            str(tmp_path), n_users=6, registry=registry,
            refitter=_quick_refitter(),
        )
        pipeline.submit(link_add(0, 1))
        pipeline.tick()
        text = registry.render()
        assert "streaming_applied_seq 1" in text
        assert "streaming_staleness_seconds 0" in text
        assert "streaming_stage_seconds" in text
