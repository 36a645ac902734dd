"""Graceful drain: closing mid-``tick`` never tears a publish.

The asyncio server drains on SIGTERM; the streaming side's
counterpart is :meth:`StreamingPipeline.close`, which (by default) takes
the tick lock before releasing the WAL — so an in-flight
apply→snapshot→refit→publish either completes its atomic
version-directory rename or never starts, and a half-written staging
directory can never be what shutdown leaves behind.
"""

import glob
import os
import threading
import time

from repro.serving.artifacts import ArtifactStore
from repro.streaming import StreamingPipeline, WarmRefitter, link_add


class _SlowRefitter(WarmRefitter):
    """A refitter that parks mid-refit until told to proceed.

    ``entered`` lets the test know the tick is inside its critical
    section; ``release`` holds it there while ``close()`` is racing.
    """

    def __init__(self, entered, release, **kwargs):
        super().__init__(**kwargs)
        self.entered = entered
        self.release = release

    def refit(self, adjacency, intimacy=None, tracer=None):
        """Signal entry, then block until released."""
        self.entered.set()
        assert self.release.wait(10.0)
        return super().refit(adjacency, intimacy=intimacy, tracer=tracer)


class TestDrainMidTick:
    def test_close_waits_for_inflight_tick_and_publish_completes(
        self, tmp_path
    ):
        entered = threading.Event()
        release = threading.Event()
        store = ArtifactStore(str(tmp_path / "store"))
        pipeline = StreamingPipeline(
            str(tmp_path / "stream"),
            n_users=8,
            store=store,
            refitter=_SlowRefitter(
                entered, release, inner_iterations=6, outer_iterations=2
            ),
        )
        pipeline.submit(link_add(0, 1))
        pipeline.submit(link_add(1, 2))

        summaries = []
        ticker = threading.Thread(
            target=lambda: summaries.append(pipeline.tick()), daemon=True
        )
        ticker.start()
        assert entered.wait(10.0)  # the tick is mid-refit

        closed = threading.Event()

        def close_pipeline():
            pipeline.close()
            closed.set()

        closer = threading.Thread(target=close_pipeline, daemon=True)
        closer.start()
        # close() must block while the tick holds the lock…
        assert not closed.wait(0.3)
        release.set()
        # …and complete once the tick (including its publish) finishes.
        assert closed.wait(10.0)
        ticker.join(10.0)
        closer.join(10.0)

        # The racing tick finished its publish — no torn version.
        assert summaries and summaries[0]["published_version"] == 1
        assert store.versions() == [1]
        store.verify(1)  # checksums intact
        # No staging leftovers from an abandoned publish.
        leftovers = glob.glob(
            os.path.join(str(tmp_path / "store"), ".staging-*")
        )
        assert leftovers == []

    def test_close_without_drain_does_not_block(self, tmp_path):
        entered = threading.Event()
        release = threading.Event()
        pipeline = StreamingPipeline(
            str(tmp_path / "stream"),
            n_users=6,
            refitter=_SlowRefitter(
                entered, release, inner_iterations=6, outer_iterations=2
            ),
        )
        pipeline.submit(link_add(0, 1))
        ticker = threading.Thread(target=pipeline.tick, daemon=True)
        ticker.start()
        assert entered.wait(10.0)
        started = time.perf_counter()
        pipeline.close(drain=False)  # must not wait for the tick
        assert time.perf_counter() - started < 1.0
        release.set()
        ticker.join(10.0)

    def test_concurrent_ticks_serialize(self, tmp_path):
        pipeline = StreamingPipeline(
            str(tmp_path / "stream"),
            n_users=6,
            refitter=WarmRefitter(inner_iterations=6, outer_iterations=2),
        )
        pipeline.submit(link_add(0, 1))
        errors = []

        def run_tick():
            try:
                pipeline.tick()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=run_tick) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert not errors
        assert pipeline.ticks == 4  # all ran, one at a time
        pipeline.close()
