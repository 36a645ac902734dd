"""Property: any interleaving of acks, crashes and replays converges.

Hypothesis drives arbitrary schedules of durable submits, state applies,
snapshots (with WAL compaction), and crashes — where a crash abandons the
in-memory state, optionally leaves a torn tail of garbage bytes on the
newest segment, and recovery rebuilds from snapshot + replay.  Whatever
the schedule, the recovered state must carry the same digest as one
uninterrupted in-memory apply of every acknowledged delta (dedup across
restarts is what makes this hold), and every live replay — which resumes
at the log's cursor — must yield what a freshly opened log replays."""

import os
import shutil
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ArtifactCorruptError
from repro.streaming.deltas import (
    Delta,
    StreamState,
    attribute_set,
    link_add,
    link_remove,
)
from repro.streaming.wal import WriteAheadLog

N_USERS = 6

_users = st.integers(0, N_USERS - 1)
_weights = st.floats(0.25, 4.0, allow_nan=False)

_deltas = st.one_of(
    st.builds(
        lambda u, v, w: link_add(u, v + 1 if v >= u else v, w),
        _users, st.integers(0, N_USERS - 2), _weights,
    ),
    st.builds(
        lambda u, v: link_remove(u, v + 1 if v >= u else v),
        _users, st.integers(0, N_USERS - 2),
    ),
    st.builds(attribute_set, _users, st.integers(0, 3), _weights),
)

_ops = st.one_of(
    st.tuples(st.just("submit"), _deltas),
    st.tuples(st.just("apply"), st.none()),
    st.tuples(st.just("snapshot"), st.none()),
    st.tuples(st.just("crash"), st.binary(min_size=0, max_size=40)),
)


def _recover(home, state_path, segment_bytes=4 << 20):
    """What a fresh process does: snapshot (if intact) + WAL replay."""
    wal = WriteAheadLog(os.path.join(home, "wal"), segment_max_bytes=segment_bytes)
    if os.path.exists(state_path):
        try:
            state = StreamState.load(state_path)
        except ArtifactCorruptError:
            state = StreamState(N_USERS)
    else:
        state = StreamState(N_USERS)
    state.apply_many(
        (seq, Delta.decode(payload))
        for seq, payload in wal.replay(state.applied_seq)
    )
    return wal, state


def _newest_segment(wal_dir):
    segments = sorted(f for f in os.listdir(wal_dir) if f.endswith(".seg"))
    return os.path.join(wal_dir, segments[-1]) if segments else None


@settings(max_examples=30)
@given(
    ops=st.lists(_ops, max_size=40),
    # The small size rotates every couple of records, so the replay
    # cursor also crosses segment boundaries and compacted segments.
    segment_bytes=st.sampled_from([4 << 20, 160]),
)
def test_interleaved_crashes_and_replays_converge(ops, segment_bytes):
    home = tempfile.mkdtemp(prefix="wal-prop-")
    try:
        wal_dir = os.path.join(home, "wal")
        state_path = os.path.join(home, "state.npz")
        oracle = StreamState(N_USERS)  # the uninterrupted apply
        wal = WriteAheadLog(wal_dir, segment_max_bytes=segment_bytes)
        state = StreamState(N_USERS)
        for op, payload in ops:
            if op == "submit":
                seq = wal.append(payload.encode())
                oracle.apply(seq, payload)
            elif op == "apply":
                after = state.applied_seq
                records = list(wal.replay(after))
                # The live log resumes at its cursor; a freshly opened
                # one scans from the start: both must yield the same.
                fresh = WriteAheadLog(wal_dir)
                assert records == list(fresh.replay(after))
                fresh.close()
                state.apply_many(
                    (seq, Delta.decode(raw)) for seq, raw in records
                )
            elif op == "snapshot":
                state.save(state_path)
                wal.truncate_through(state.applied_seq)
            else:  # crash: lose memory, maybe tear the newest segment
                wal.close()
                segment = _newest_segment(wal_dir)
                if segment is not None and payload:
                    with open(segment, "ab") as handle:
                        handle.write(payload)
                wal, state = _recover(home, state_path, segment_bytes)
        wal.close()
        _, recovered = _recover(home, state_path)
        assert recovered.digest() == oracle.digest()
    finally:
        shutil.rmtree(home, ignore_errors=True)
