"""WAL framing, recovery, rotation, compaction and fault sites."""

import os

import pytest

from repro.exceptions import ConfigurationError, WalCorruptError
from repro.observability.metrics import MetricsRegistry
from repro.reliability.faults import GLOBAL_INJECTOR, InjectedFaultError
from repro.streaming import wal as wal_module
from repro.streaming.deltas import Delta, StreamState, link_add
from repro.streaming.wal import WriteAheadLog, _FRAME_OVERHEAD


@pytest.fixture(autouse=True)
def _clean_injector():
    GLOBAL_INJECTOR.reset()
    yield
    GLOBAL_INJECTOR.reset()


def _segments(directory):
    return sorted(f for f in os.listdir(directory) if f.endswith(".seg"))


class TestAppendReplay:
    def test_roundtrip(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        assert wal.append(b"one") == 1
        assert wal.append(b"two") == 2
        assert list(wal.replay()) == [(1, b"one"), (2, b"two")]
        assert list(wal.replay(after_seq=1)) == [(2, b"two")]

    def test_reopen_resumes_sequence(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append(b"a")
        wal.close()
        reopened = WriteAheadLog(str(tmp_path))
        assert reopened.last_seq == 1
        assert reopened.append(b"b") == 2

    def test_oversized_payload_rejected(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        with pytest.raises(ConfigurationError):
            wal.append(b"x" * (1 << 25))

    def test_empty_wal(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        assert wal.last_seq == 0
        assert list(wal.replay()) == []


class TestRecovery:
    def test_torn_tail_is_truncated(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append(b"keep me")
        wal.close()
        (segment,) = _segments(str(tmp_path))
        with open(tmp_path / segment, "ab") as handle:
            handle.write(b"WAL1\x07garbage-half-record")
        recovered = WriteAheadLog(str(tmp_path))
        assert recovered.torn_tail_truncations == 1
        assert list(recovered.replay()) == [(1, b"keep me")]
        assert recovered.append(b"next") == 2

    def test_flipped_bit_in_tail_record_truncates(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append(b"first")
        wal.append(b"second")
        wal.close()
        (segment,) = _segments(str(tmp_path))
        path = tmp_path / segment
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0xFF  # corrupt the digest of the last record
        path.write_bytes(raw)
        recovered = WriteAheadLog(str(tmp_path))
        assert list(recovered.replay()) == [(1, b"first")]

    def test_corruption_before_newest_segment_raises(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), segment_max_bytes=_FRAME_OVERHEAD + 4)
        for i in range(4):  # one record per segment at this size
            wal.append(b"%04d" % i)
        wal.close()
        segments = _segments(str(tmp_path))
        assert len(segments) > 2
        first = tmp_path / segments[0]
        raw = bytearray(first.read_bytes())
        raw[-1] ^= 0xFF
        first.write_bytes(raw)
        with pytest.raises(WalCorruptError):
            WriteAheadLog(str(tmp_path))


class TestRotationCompaction:
    def test_rotates_at_segment_cap(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), segment_max_bytes=_FRAME_OVERHEAD + 4)
        for i in range(5):
            wal.append(b"%04d" % i)
        assert len(_segments(str(tmp_path))) == 5
        assert [seq for seq, _ in wal.replay()] == [1, 2, 3, 4, 5]

    def test_truncate_through_removes_covered_segments(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), segment_max_bytes=_FRAME_OVERHEAD + 4)
        for i in range(5):
            wal.append(b"%04d" % i)
        removed = wal.truncate_through(3)
        assert removed == 3
        assert [seq for seq, _ in wal.replay()] == [4, 5]
        # Newest segment always survives, even when fully covered.
        assert wal.truncate_through(5) == 1
        assert wal.last_seq == 5
        reopened_after = WriteAheadLog(str(tmp_path))
        assert reopened_after.last_seq == 5

    def test_replay_after_compaction_starts_midstream(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path), segment_max_bytes=_FRAME_OVERHEAD + 4)
        for i in range(4):
            wal.append(b"%04d" % i)
        wal.truncate_through(2)
        assert wal.first_seq == 3
        assert [seq for seq, _ in wal.replay()] == [3, 4]


class TestFaultSites:
    def test_fsync_fault_rolls_back_and_never_acks(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append(b"durable")
        GLOBAL_INJECTOR.arm("streaming.wal.fsync", times=1)
        with pytest.raises(OSError):
            wal.append(b"lost-but-never-acked")
        assert wal.last_seq == 1
        assert list(wal.replay()) == [(1, b"durable")]
        # Retry after the fault succeeds and reuses the sequence number.
        assert wal.append(b"retried") == 2

    def test_torn_write_fault_leaves_then_repairs_tail(self, tmp_path):
        registry = MetricsRegistry()
        wal = WriteAheadLog(str(tmp_path), registry=registry)
        wal.append(b"durable")
        GLOBAL_INJECTOR.arm("streaming.wal.torn_write", times=1)
        with pytest.raises(InjectedFaultError):
            wal.append(b"torn")
        # Real torn bytes are on disk until the next append repairs them.
        (segment,) = _segments(str(tmp_path))
        clean = wal._clean_end
        assert os.path.getsize(tmp_path / segment) > clean
        assert wal.append(b"after") == 2
        assert wal.torn_tail_truncations == 1
        assert list(wal.replay()) == [(1, b"durable"), (2, b"after")]

    def test_torn_write_fault_survives_reopen(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.append(b"durable")
        GLOBAL_INJECTOR.arm("streaming.wal.torn_write", times=1)
        with pytest.raises(InjectedFaultError):
            wal.append(b"torn")
        wal.close()
        recovered = WriteAheadLog(str(tmp_path))
        assert recovered.torn_tail_truncations == 1
        assert list(recovered.replay()) == [(1, b"durable")]


class TestReplayCursor:
    def test_resumed_replay_hashes_only_new_frames(self, tmp_path, hashed_frames):
        wal = WriteAheadLog(str(tmp_path))
        for i in range(50):
            wal.append(b"%04d" % i)
        assert len(list(wal.replay(0))) == 50
        wal.append(b"new-1")
        wal.append(b"new-2")
        hashed_frames.clear()
        assert list(wal.replay(50)) == [(51, b"new-1"), (52, b"new-2")]
        assert hashed_frames == [51, 52]
        hashed_frames.clear()
        assert list(wal.replay(52)) == []
        assert hashed_frames == []

    def test_recovery_scan_places_the_cursor(self, tmp_path, hashed_frames):
        wal = WriteAheadLog(str(tmp_path))
        for i in range(20):
            wal.append(b"%04d" % i)
        wal.close()
        reopened = WriteAheadLog(str(tmp_path))
        hashed_frames.clear()
        assert list(reopened.replay(20)) == []
        assert hashed_frames == []

    def test_replay_behind_the_cursor_rescans(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        for i in range(6):
            wal.append(b"%04d" % i)
        assert [seq for seq, _ in wal.replay(4)] == [5, 6]
        assert [seq for seq, _ in wal.replay(2)] == [3, 4, 5, 6]
        assert wal.record_count() == 6
        assert [seq for seq, _ in wal.replay(6)] == []

    def test_cursor_crosses_rotation_and_compaction(self, tmp_path):
        # Two records per segment; compaction between a rotation and the
        # next replay deletes the segment the cursor sits at the end of.
        wal = WriteAheadLog(str(tmp_path), segment_max_bytes=_FRAME_OVERHEAD + 8)
        applied = 0
        for i in range(9):
            wal.append(b"%04d" % i)
            if i % 2:
                wal.truncate_through(applied)
                seqs = [seq for seq, _ in wal.replay(applied)]
                assert seqs == list(range(applied + 1, i + 2))
                applied = seqs[-1]
        assert wal.first_seq > 1
        assert [seq for seq, _ in wal.replay(applied)] == [9]
        fresh = WriteAheadLog(str(tmp_path))
        assert list(fresh.replay(7)) == list(wal.replay(7))

    def test_partial_rescan_leaves_the_cursor_in_place(self, tmp_path, hashed_frames):
        wal = WriteAheadLog(str(tmp_path))
        for i in range(4):
            wal.append(b"%04d" % i)
        assert len(list(wal.replay(0))) == 4
        records = wal.replay(0)
        assert next(records) == (1, b"0000")
        records.close()
        hashed_frames.clear()
        assert list(wal.replay(4)) == []
        assert hashed_frames == []
        assert [seq for seq, _ in wal.replay(1)] == [2, 3, 4]

    def test_replay_reads_only_acknowledged_bytes(self, tmp_path, monkeypatch):
        """A frame whose fsync fails is never replayed, not even mid-append.

        The failing fsync first runs a consumer's replay — the window in
        which the frame is written and flushed but not yet acknowledged —
        then fails, so the append rolls the frame back.
        """
        wal = WriteAheadLog(str(tmp_path))
        live = StreamState(4)

        def fold():
            records = [
                (seq, Delta.decode(raw))
                for seq, raw in wal.replay(live.applied_seq)
            ]
            live.apply_many(records)
            return records

        assert wal.append(link_add(0, 1).encode()) == 1
        fold()
        real_fsync = os.fsync
        mid_append = []

        def replay_then_fail(fd):
            if mid_append:
                return real_fsync(fd)  # the rollback's own truncate-and-sync
            mid_append.append(fold())
            raise OSError("fsync failed")

        monkeypatch.setattr(wal_module.os, "fsync", replay_then_fail)
        with pytest.raises(OSError):
            wal.append(link_add(1, 2).encode())
        monkeypatch.undo()
        assert mid_append == [[]]
        retried = link_add(2, 3)
        assert wal.append(retried.encode()) == 2
        assert fold() == [(2, retried)]
        wal.close()
        recovered = StreamState(4)
        recovered.apply_many(
            (seq, Delta.decode(raw))
            for seq, raw in WriteAheadLog(str(tmp_path)).replay()
        )
        assert live.digest() == recovered.digest()
