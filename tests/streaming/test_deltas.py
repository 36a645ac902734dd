"""Delta encoding, StreamState folding, digests and snapshots."""

import numpy as np
import pytest

from repro.exceptions import ArtifactCorruptError, ConfigurationError
from repro.streaming.deltas import (
    Delta,
    StreamState,
    attribute_set,
    link_add,
    link_remove,
)
from tests.streaming.state_oracle import csr_identical


class TestDelta:
    def test_encode_decode_roundtrip(self):
        for delta in (link_add(0, 5, 2.5), link_remove(3, 1), attribute_set(2, 7, -1.0)):
            assert Delta.decode(delta.encode()) == delta

    def test_encoding_is_canonical(self):
        assert link_add(1, 2).encode() == link_add(1, 2, 1.0).encode()

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            Delta("link.frobnicate", 0, 1)

    def test_rejects_self_loop_links(self):
        with pytest.raises(ConfigurationError):
            link_add(4, 4)

    def test_attr_set_allows_equal_indices(self):
        attribute_set(4, 4, 1.0)  # v is an attribute index, not a user

    def test_rejects_negative_indices(self):
        with pytest.raises(ConfigurationError):
            link_add(-1, 2)

    def test_decode_garbage_raises(self):
        with pytest.raises(ArtifactCorruptError):
            Delta.decode(b"\xff\x00 not json")
        with pytest.raises(ArtifactCorruptError):
            Delta.decode(b'{"kind": "link.add"}')


class TestStreamState:
    def test_apply_skips_stale_sequence_numbers(self):
        state = StreamState(4)
        assert state.apply(1, link_add(0, 1))
        assert not state.apply(1, link_add(2, 3))  # replayed dup: skipped
        assert state.n_links == 1
        assert state.applied_seq == 1

    def test_link_semantics_are_set_like(self):
        state = StreamState(4)
        state.apply(1, link_add(0, 1, 1.0))
        state.apply(2, link_add(1, 0, 3.0))  # overwrite, symmetric key
        assert state.link_weight(0, 1) == 3.0
        state.apply(3, link_remove(0, 1))
        assert state.link_weight(0, 1) == 0.0
        state.apply(4, link_remove(0, 1))  # removing absent pair: no-op
        assert state.n_links == 0

    def test_out_of_range_user_rejected(self):
        state = StreamState(3)
        with pytest.raises(ConfigurationError):
            state.apply(1, link_add(0, 7))

    def test_to_csr_symmetric(self):
        state = StreamState(5)
        state.apply_many([(1, link_add(0, 1)), (2, link_add(3, 2, 2.0))])
        adjacency = state.to_csr()
        dense = adjacency.toarray()
        assert dense[0, 1] == dense[1, 0] == 1.0
        assert dense[2, 3] == dense[3, 2] == 2.0
        assert np.count_nonzero(dense) == 4

    def test_attribute_matrix(self):
        state = StreamState(3)
        state.apply(1, attribute_set(1, 2, 0.5))
        attrs = state.attribute_matrix()
        assert attrs.shape == (3, 3)
        assert attrs[1, 2] == 0.5

    def test_digest_tracks_content_and_seq(self):
        a, b = StreamState(4), StreamState(4)
        a.apply(1, link_add(0, 1))
        b.apply(1, link_add(0, 1))
        assert a.digest() == b.digest()
        b.apply(2, link_add(2, 3))
        assert a.digest() != b.digest()

    def test_save_load_roundtrip(self, tmp_path):
        state = StreamState(6)
        state.apply_many(
            [(1, link_add(0, 1)), (2, attribute_set(3, 0, 2.0)), (3, link_remove(0, 1))]
        )
        path = str(tmp_path / "state.npz")
        state.save(path)
        loaded = StreamState.load(path)
        assert loaded.digest() == state.digest()
        assert loaded.applied_seq == 3

    def test_load_rejects_corrupt_snapshot(self, tmp_path):
        state = StreamState(4)
        state.apply(1, link_add(0, 1))
        path = str(tmp_path / "state.npz")
        state.save(path)
        raw = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(raw[: len(raw) // 2])  # torn snapshot write
        with pytest.raises(ArtifactCorruptError):
            StreamState.load(path)


class TestCachedViews:
    """``to_csr`` and ``digest`` are built once per state version."""

    def _assert_matches_fresh_fold(self, state, records):
        fresh = StreamState(state.n_users)
        fresh.apply_many(records)
        assert state.digest() == fresh.digest()
        assert csr_identical(state.to_csr(), fresh.to_csr())

    def test_every_mutation_refreshes_the_cache(self, tmp_path):
        mutations = [
            link_add(0, 1, 1.0),  # add
            link_add(2, 1, 2.0),
            link_add(1, 0, 3.0),  # weight overwrite
            link_remove(1, 2),  # remove
            link_remove(3, 4),  # remove of an absent link
            attribute_set(2, 1, 0.5),  # attr.set
        ]
        state = StreamState(5)
        records = []
        for seq, delta in enumerate(mutations, start=1):
            state.to_csr(), state.digest()  # cache the previous version
            assert state.apply(seq, delta)
            records.append((seq, delta))
            self._assert_matches_fresh_fold(state, records)
        state.to_csr(), state.digest()
        assert not state.apply(3, link_add(3, 4))  # replayed duplicate seq
        self._assert_matches_fresh_fold(state, records)
        path = str(tmp_path / "state.npz")
        state.save(path)
        loaded = StreamState.load(path)
        self._assert_matches_fresh_fold(loaded, records)
        assert loaded.applied_seq == len(mutations)

    def test_cached_csr_is_shared_and_read_only(self):
        state = StreamState(4)
        state.apply(1, link_add(0, 1))
        adjacency = state.to_csr()
        assert state.to_csr() is adjacency
        for array in (adjacency.data, adjacency.indices, adjacency.indptr):
            with pytest.raises(ValueError):
                array[0] = 7
        empty = StreamState(4).to_csr()
        assert not empty.indptr.flags.writeable
