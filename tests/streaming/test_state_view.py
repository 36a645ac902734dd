"""The canonical link view of ``StreamState`` against the reference fold.

``to_csr``, ``digest`` and ``save`` all read one incrementally updated
view of the links.  These tests pin what it must reproduce: the CSR
arrays and the digest hex of the per-link sort-and-format builders in
``state_oracle``, a literal digest for a fixed state, and snapshots in
both the uncompressed layout and the older compressed one.
"""

import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import ArtifactCorruptError
from repro.streaming.deltas import (
    StreamState,
    attribute_set,
    link_add,
    link_remove,
)
from tests.streaming.state_oracle import ReferenceState, csr_identical

# A fixed state and the digest hex its fold had before the view existed.
# Snapshots and served manifests embed this value, so it must not move.
GOLDEN_RECORDS = [
    link_add(0, 1, 1.0),
    link_add(5, 2, 0.25),
    link_add(3, 6, -1.5),
    attribute_set(2, 0, 0.1),
    link_remove(0, 1),
    link_add(4, 1, 1e-300),
    link_add(6, 0, 2.0 / 3.0),
    link_add(2, 5, 3.0),
    attribute_set(6, 3, -0.0),
    link_remove(1, 3),
]
GOLDEN_DIGEST = "729f206dd13825dee38078a623768a12eaf1f638222e26ed6172740cf70fe84c"
EMPTY_DIGEST = "67eeb73a3af7fbc2d35e21b5a974d20c09f0ee21d6577f2c06e967115a48a1ac"


def _golden_state():
    state = StreamState(7)
    state.apply_many(enumerate(GOLDEN_RECORDS, start=1))
    return state


def _golden_reference():
    reference = ReferenceState(7)
    for seq, delta in enumerate(GOLDEN_RECORDS, start=1):
        reference.apply(seq, delta)
    return reference


def test_digest_matches_the_golden_hex(tmp_path):
    assert StreamState(7).digest() == EMPTY_DIGEST
    state = _golden_state()
    assert state.digest() == GOLDEN_DIGEST
    path = str(tmp_path / "state.npz")
    state.save(path)
    assert StreamState.load(path).digest() == GOLDEN_DIGEST


N_USERS = 6
_users = st.integers(0, N_USERS - 1)
_weights = st.floats(allow_nan=False, width=64)
_link = st.tuples(_users, _users).filter(lambda pair: pair[0] != pair[1])
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), _link, _weights),
        st.tuples(st.just("remove"), _link),
        st.tuples(st.just("attr"), st.tuples(_users, st.integers(0, 3)), _weights),
        st.tuples(st.just("replay"), _link),
        st.sampled_from([("csr",), ("digest",), ("save_load",)]),
    ),
    max_size=60,
)


def _assert_matches(state, reference):
    assert state.n_links == len(reference.links)
    assert csr_identical(state.to_csr(), reference.to_csr())
    assert state.digest() == reference.digest()


@given(_operations)
def test_view_matches_the_reference_fold(operations):
    """Adds, removes (of absent links too), re-adds with new weights and
    attribute writes, interleaved with every reader of the view."""
    state, reference = StreamState(N_USERS), ReferenceState(N_USERS)
    seq = 0
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "state.npz")
        for operation in operations:
            kind = operation[0]
            if kind in ("add", "remove", "attr"):
                (u, v) = operation[1]
                if kind == "add":
                    delta = link_add(u, v, operation[2])
                elif kind == "remove":
                    delta = link_remove(u, v)
                else:
                    delta = attribute_set(u, v, operation[2])
                seq += 1
                assert state.apply(seq, delta)
                reference.apply(seq, delta)
            elif kind == "replay":
                assert not state.apply(seq, link_add(*operation[1]))
            elif kind == "csr":
                assert csr_identical(state.to_csr(), reference.to_csr())
            elif kind == "digest":
                assert state.digest() == reference.digest()
            else:
                state.save(path)
                state = StreamState.load(path)
                assert state.applied_seq == reference.applied_seq
        _assert_matches(state, reference)


class TestSnapshotCompatibility:
    def test_compressed_snapshot_loads_with_the_same_digest(self, tmp_path):
        reference = _golden_reference()
        path = str(tmp_path / "state.npz")
        reference.save_compressed(path)
        loaded = StreamState.load(path)
        assert loaded.digest() == reference.digest() == GOLDEN_DIGEST
        assert csr_identical(loaded.to_csr(), reference.to_csr())
        assert loaded.apply(len(GOLDEN_RECORDS) + 1, link_add(0, 3, 4.0))
        reference.apply(len(GOLDEN_RECORDS) + 1, link_add(0, 3, 4.0))
        _assert_matches(loaded, reference)

    def test_empty_compressed_snapshot_loads(self, tmp_path):
        path = str(tmp_path / "state.npz")
        ReferenceState(7).save_compressed(path)
        assert StreamState.load(path).digest() == EMPTY_DIGEST

    @pytest.mark.parametrize("keep", [0.25, 0.5, 0.9, 0.999])
    def test_truncated_snapshot_is_refused(self, tmp_path, keep):
        path = str(tmp_path / "state.npz")
        _golden_state().save(path)
        raw = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(raw[: int(len(raw) * keep)])
        with pytest.raises(ArtifactCorruptError):
            StreamState.load(path)

    @pytest.mark.parametrize("member", ["link_keys", "link_values"])
    def test_flipped_array_bytes_are_refused(self, tmp_path, member):
        path = str(tmp_path / "state.npz")
        _golden_state().save(path)
        links = sorted(_golden_reference().links.items())
        if member == "link_keys":
            array = np.asarray([key for key, _ in links], dtype=np.int64)
        else:
            array = np.asarray([weight for _, weight in links])
        raw = bytearray(open(path, "rb").read())
        offset = bytes(raw).find(array.tobytes())
        assert offset > 0  # the members are stored uncompressed
        raw[offset + 3] ^= 0x40
        with open(path, "wb") as handle:
            handle.write(bytes(raw))
        with pytest.raises(ArtifactCorruptError):
            StreamState.load(path)

    @pytest.mark.parametrize(
        "meta", [{"schema_version": 1}, [1, 2], {"n_users": 1, "applied_seq": 0}]
    )
    def test_unreadable_meta_is_refused(self, tmp_path, meta):
        path = str(tmp_path / "state.npz")
        empty_keys = np.zeros((0, 2), dtype=np.int64)
        np.savez(
            path,
            meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
            link_keys=empty_keys,
            link_values=np.zeros(0),
            attr_keys=empty_keys,
            attr_values=np.zeros(0),
            digest=np.frombuffer(EMPTY_DIGEST.encode("ascii"), dtype=np.uint8),
        )
        with pytest.raises(ArtifactCorruptError):
            StreamState.load(path)
