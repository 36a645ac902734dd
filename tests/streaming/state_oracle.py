"""Reference forms of the stream state: a dict fold, sorted CSR and digest.

These are the per-link sort-and-format builders ``StreamState`` once
used for every version.  They stay here as the oracle that the
incremental canonical view must match bit for bit: the same CSR arrays,
and the same digest hex, which snapshots and served manifests embed.
"""

import hashlib
import json

import numpy as np
from scipy import sparse

from repro.streaming.deltas import ATTR_SET, LINK_ADD, STATE_SCHEMA_VERSION


class ReferenceState:
    """A plain-dict fold of sequenced deltas with the same set semantics."""

    def __init__(self, n_users):
        self.n_users = n_users
        self.links = {}
        self.attributes = {}
        self.applied_seq = 0

    def apply(self, seq, delta):
        if seq <= self.applied_seq:
            return False
        if delta.kind == ATTR_SET:
            self.attributes[(delta.u, delta.v)] = delta.value
        else:
            key = (min(delta.u, delta.v), max(delta.u, delta.v))
            if delta.kind == LINK_ADD:
                self.links[key] = delta.value
            else:
                self.links.pop(key, None)
        self.applied_seq = seq
        return True

    def to_csr(self):
        if not self.links:
            return sparse.csr_matrix((self.n_users, self.n_users))
        keys = sorted(self.links)
        rows = np.fromiter((k[0] for k in keys), dtype=np.int64, count=len(keys))
        cols = np.fromiter((k[1] for k in keys), dtype=np.int64, count=len(keys))
        vals = np.fromiter(
            (self.links[k] for k in keys), dtype=float, count=len(keys)
        )
        matrix = sparse.coo_matrix(
            (
                np.concatenate([vals, vals]),
                (np.concatenate([rows, cols]), np.concatenate([cols, rows])),
            ),
            shape=(self.n_users, self.n_users),
        )
        return matrix.tocsr()

    def digest(self):
        hasher = hashlib.sha256()
        hasher.update(f"v{STATE_SCHEMA_VERSION}:{self.n_users}:".encode())
        hasher.update(f"seq={self.applied_seq};".encode())
        for (u, v), weight in sorted(self.links.items()):
            hasher.update(f"L{u},{v}={weight!r};".encode())
        for (u, a), value in sorted(self.attributes.items()):
            hasher.update(f"A{u},{a}={value!r};".encode())
        return hasher.hexdigest()

    def save_compressed(self, path):
        """Write a snapshot the way ``StreamState.save`` once did."""
        links = sorted(self.links.items())
        attrs = sorted(self.attributes.items())
        meta = json.dumps(
            {
                "schema_version": STATE_SCHEMA_VERSION,
                "n_users": self.n_users,
                "applied_seq": self.applied_seq,
            },
            sort_keys=True,
        )
        with open(path, "wb") as handle:
            np.savez_compressed(
                handle,
                meta=np.frombuffer(meta.encode("utf-8"), dtype=np.uint8),
                link_keys=np.asarray(
                    [k for k, _ in links], dtype=np.int64
                ).reshape(-1, 2),
                link_values=np.asarray([w for _, w in links], dtype=float),
                attr_keys=np.asarray(
                    [k for k, _ in attrs], dtype=np.int64
                ).reshape(-1, 2),
                attr_values=np.asarray([v for _, v in attrs], dtype=float),
                digest=np.frombuffer(self.digest().encode("ascii"), dtype=np.uint8),
            )


def csr_identical(a, b):
    """Same shape, same arrays, same dtypes: bit-identical CSR."""
    return a.shape == b.shape and all(
        x.dtype == y.dtype and np.array_equal(x, y)
        for x, y in (
            (a.indptr, b.indptr),
            (a.indices, b.indices),
            (a.data, b.data),
        )
    )
