"""Shared fixtures of the streaming tests."""

import pytest

from repro.streaming import wal as wal_module


@pytest.fixture()
def hashed_frames(monkeypatch):
    """The seqs of every sha256 frame digest the WAL computes from here on.

    Appends hash their frames too, so a test clears the list before the
    replay it counts.
    """
    calls = []
    original = wal_module._record_digest

    def counted(seq, payload):
        calls.append(seq)
        return original(seq, payload)

    monkeypatch.setattr(wal_module, "_record_digest", counted)
    return calls
