"""Streaming deltas and the replayable graph state they mutate.

A :class:`Delta` is one immutable link or attribute mutation; the write
ahead log stores its canonical byte encoding, and a :class:`StreamState`
applies acknowledged deltas in sequence order.  Two properties carry the
crash-safety story:

* **idempotent per sequence number** — :meth:`StreamState.apply` skips any
  record whose sequence number is not strictly greater than
  ``applied_seq``, so replaying a WAL that overlaps an already-restored
  snapshot (the normal recovery shape) cannot double-apply;
* **idempotent per operation** — link adds/removes and attribute writes
  have *set* semantics (``add`` overwrites the weight, ``remove`` of an
  absent pair is a no-op), so an at-least-once producer that retries a
  failed append can never diverge the state.

:meth:`StreamState.digest` is the bit-exactness oracle: two states reach
the same digest iff every link weight, attribute value, user count and
applied sequence number are identical, which is what the SIGKILL recovery
test compares against an uninterrupted apply.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zipfile
import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Set, Tuple

import numpy as np
from scipy import sparse

from repro.exceptions import ArtifactCorruptError, ConfigurationError

STATE_SCHEMA_VERSION = 1

LINK_ADD = "link.add"
LINK_REMOVE = "link.remove"
ATTR_SET = "attr.set"

_KINDS = (LINK_ADD, LINK_REMOVE, ATTR_SET)


@dataclass(frozen=True)
class Delta:
    """One immutable stream mutation.

    Attributes
    ----------
    kind:
        ``link.add`` / ``link.remove`` mutate the undirected edge
        ``{u, v}``; ``attr.set`` writes attribute index ``v`` of user
        ``u``.
    u, v:
        User index pair (``v`` is the attribute index for ``attr.set``).
    value:
        Link weight (``link.add``) or attribute value (``attr.set``);
        ignored by ``link.remove``.
    """

    kind: str
    u: int
    v: int
    value: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"unknown delta kind {self.kind!r}; known kinds: {_KINDS}"
            )
        if int(self.u) < 0 or int(self.v) < 0:
            raise ConfigurationError(
                f"delta indices must be non-negative, got ({self.u}, {self.v})"
            )
        if self.kind != ATTR_SET and int(self.u) == int(self.v):
            raise ConfigurationError(
                f"link deltas must not be self-loops, got ({self.u}, {self.v})"
            )
        object.__setattr__(self, "u", int(self.u))
        object.__setattr__(self, "v", int(self.v))
        object.__setattr__(self, "value", float(self.value))

    def encode(self) -> bytes:
        """Canonical byte payload (sorted-key JSON, repr-exact floats)."""
        return json.dumps(
            {"kind": self.kind, "u": self.u, "v": self.v, "value": self.value},
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")

    @classmethod
    def decode(cls, payload: bytes) -> "Delta":
        """Parse :meth:`encode` output; corruption raises loudly."""
        try:
            body = json.loads(payload.decode("utf-8"))
            return cls(
                kind=body["kind"],
                u=body["u"],
                v=body["v"],
                value=body["value"],
            )
        except (ValueError, KeyError, TypeError, UnicodeDecodeError) as exc:
            raise ArtifactCorruptError(
                f"undecodable delta payload: {exc}"
            ) from exc


def link_add(u: int, v: int, weight: float = 1.0) -> Delta:
    """Convenience constructor for a ``link.add`` delta."""
    return Delta(LINK_ADD, u, v, weight)


def link_remove(u: int, v: int) -> Delta:
    """Convenience constructor for a ``link.remove`` delta."""
    return Delta(LINK_REMOVE, u, v, 0.0)


def attribute_set(user: int, attribute: int, value: float) -> Delta:
    """Convenience constructor for an ``attr.set`` delta."""
    return Delta(ATTR_SET, user, attribute, value)


class StreamState:
    """The deterministic fold of acknowledged deltas: links + attributes.

    The link dict is the source of truth for :meth:`apply` and
    :meth:`link_weight`.  :meth:`to_csr`, :meth:`digest` and :meth:`save`
    all read one canonical view of it instead: the sorted int64 link
    codes ``u * n_users + v`` (``u < v``), their weights and each link's
    digest segment ``b"L{u},{v}={w!r};"``.  :meth:`apply` only records
    which codes it touched; the next read drops those codes from the
    view and inserts the ones still live, so a version costs
    O(deltas · log links) plus O(links) of array copies, with no
    per-link Python work.

    Parameters
    ----------
    n_users:
        Fixed user population; deltas referencing users outside
        ``[0, n_users)`` are rejected at apply time.

    Examples
    --------
    >>> state = StreamState(4)
    >>> state.apply(1, link_add(0, 1))
    True
    >>> state.apply(1, link_add(0, 1))  # replayed seq: skipped
    False
    >>> state.applied_seq
    1
    """

    def __init__(self, n_users: int):
        self.n_users = int(n_users)
        if self.n_users < 2:
            raise ConfigurationError(
                f"streaming state needs n_users >= 2, got {n_users}"
            )
        self._links: Dict[Tuple[int, int], float] = {}
        self._attributes: Dict[Tuple[int, int], float] = {}
        self.applied_seq = 0
        self._codes = np.empty(0, dtype=np.int64)
        self._weights = np.empty(0, dtype=float)
        self._segments = np.empty(0, dtype=object)
        self._touched: Set[int] = set()
        self._invalidate()

    def _invalidate(self) -> None:
        """Drop the per-version CSR and digest (the state changed)."""
        self._csr: Optional[sparse.csr_matrix] = None
        self._digest: Optional[str] = None

    # -- mutation -------------------------------------------------------
    def _check_user(self, index: int) -> int:
        if not 0 <= index < self.n_users:
            raise ConfigurationError(
                f"user index {index} out of range (0..{self.n_users - 1})"
            )
        return index

    def apply(self, seq: int, delta: Delta) -> bool:
        """Apply one sequenced delta; ``False`` when it was already applied.

        Sequence numbers must arrive in the order the WAL assigned them;
        anything at or below ``applied_seq`` is a replayed duplicate and
        is skipped without touching the state.
        """
        seq = int(seq)
        if seq <= self.applied_seq:
            return False
        if delta.kind == ATTR_SET:
            self._check_user(delta.u)
            self._attributes[(delta.u, delta.v)] = delta.value
        else:
            key = (min(delta.u, delta.v), max(delta.u, delta.v))
            self._check_user(key[0])
            self._check_user(key[1])
            if delta.kind == LINK_ADD:
                self._links[key] = delta.value
            else:
                self._links.pop(key, None)
            self._touched.add(key[0] * self.n_users + key[1])
        self.applied_seq = seq
        self._invalidate()
        return True

    def apply_many(self, records: Iterable[Tuple[int, Delta]]) -> int:
        """Apply ``(seq, delta)`` records in order; returns how many applied."""
        applied = 0
        for seq, delta in records:
            if self.apply(seq, delta):
                applied += 1
        return applied

    # -- reads ----------------------------------------------------------
    @property
    def n_links(self) -> int:
        """Number of live undirected links."""
        return len(self._links)

    def link_weight(self, u: int, v: int) -> float:
        """Weight of the undirected link ``{u, v}`` (0.0 when absent)."""
        key = (min(int(u), int(v)), max(int(u), int(v)))
        return self._links.get(key, 0.0)

    def attribute(self, user: int, attribute: int) -> float:
        """Current value of one user attribute (0.0 when never written)."""
        return self._attributes.get((int(user), int(attribute)), 0.0)

    def _link_view(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sorted link codes, their weights and digest segments, up to date.

        Folds the codes touched since the last read into the view: drop
        them all, then insert the ones the dict still holds at their
        sorted positions.
        """
        if self._touched:
            touched = np.fromiter(
                sorted(self._touched), dtype=np.int64, count=len(self._touched)
            )
            self._touched.clear()
            keep = ~np.isin(self._codes, touched, assume_unique=True)
            live_codes, live_weights, live_segments = [], [], []
            for code in touched.tolist():
                u, v = divmod(code, self.n_users)
                weight = self._links.get((u, v))
                if weight is not None:
                    live_codes.append(code)
                    live_weights.append(weight)
                    live_segments.append(f"L{u},{v}={weight!r};".encode())
            codes = self._codes[keep]
            positions = np.searchsorted(codes, live_codes)
            self._codes = np.insert(codes, positions, live_codes)
            self._weights = np.insert(self._weights[keep], positions, live_weights)
            self._segments = np.insert(
                self._segments[keep], positions, live_segments
            )
        return self._codes, self._weights, self._segments

    def _link_pairs(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows, columns and weights of the upper-triangle links, sorted."""
        codes, weights, _ = self._link_view()
        rows, cols = np.divmod(codes, self.n_users)
        return rows, cols, weights

    def to_csr(self) -> sparse.csr_matrix:
        """The symmetric adjacency as a deterministic CSR matrix.

        Built once per state version and shared by every caller until the
        next :meth:`apply`, so its arrays are read-only: an in-place write
        raises instead of corrupting the next caller's graph.
        """
        if self._csr is None:
            matrix = self._build_csr()
            for array in (matrix.data, matrix.indices, matrix.indptr):
                array.flags.writeable = False
            self._csr = matrix
        return self._csr

    def _build_csr(self) -> sparse.csr_matrix:
        rows, cols, weights = self._link_pairs()
        return sparse.coo_matrix(
            (
                np.concatenate([weights, weights]),
                (np.concatenate([rows, cols]), np.concatenate([cols, rows])),
            ),
            shape=(self.n_users, self.n_users),
        ).tocsr()

    def attribute_matrix(self, n_attributes: Optional[int] = None) -> sparse.csr_matrix:
        """Users × attributes CSR of every written attribute value."""
        if n_attributes is None:
            n_attributes = 1 + max(
                (idx for _, idx in self._attributes), default=-1
            )
        keys = sorted(self._attributes)
        rows = [k[0] for k in keys]
        cols = [k[1] for k in keys]
        vals = [self._attributes[k] for k in keys]
        return sparse.csr_matrix(
            (vals, (rows, cols)), shape=(self.n_users, max(0, n_attributes))
        )

    def digest(self) -> str:
        """Sha256 over the full state: the bit-exact recovery oracle.

        Computed once per state version (see :meth:`to_csr`).
        """
        if self._digest is None:
            self._digest = self._compute_digest()
        return self._digest

    def _compute_digest(self) -> str:
        _, _, segments = self._link_view()
        hasher = hashlib.sha256()
        hasher.update(
            f"v{STATE_SCHEMA_VERSION}:{self.n_users}:seq={self.applied_seq};".encode()
        )
        hasher.update(b"".join(segments.tolist()))
        for (u, a), value in sorted(self._attributes.items()):
            hasher.update(f"A{u},{a}={value!r};".encode())
        return hasher.hexdigest()

    # -- durability -----------------------------------------------------
    def save(self, path: str) -> str:
        """Atomically snapshot the state (staged write + ``os.replace``).

        The archive embeds the state digest; :meth:`load` refuses any file
        whose content does not hash back to it, so a torn snapshot write
        degrades to "replay more of the WAL", never to silent corruption.
        The members are stored uncompressed: the links are written straight
        from the canonical view, and a zlib pass over the whole state would
        cost more every tick than the bytes it saves.
        """
        rows, cols, weights = self._link_pairs()
        attrs = sorted(self._attributes.items())
        payload = {
            "schema_version": STATE_SCHEMA_VERSION,
            "n_users": self.n_users,
            "applied_seq": self.applied_seq,
        }
        meta_json = json.dumps(payload, sort_keys=True)
        directory = os.path.dirname(os.path.abspath(path)) or "."
        os.makedirs(directory, exist_ok=True)
        fd, staging = tempfile.mkstemp(dir=directory, suffix=".state-staging")
        try:
            with os.fdopen(fd, "wb") as handle:
                np.savez(
                    handle,
                    meta=np.frombuffer(meta_json.encode("utf-8"), dtype=np.uint8),
                    link_keys=np.stack([rows, cols], axis=1),
                    link_values=weights,
                    attr_keys=np.asarray(
                        [k for k, _ in attrs], dtype=np.int64
                    ).reshape(-1, 2),
                    attr_values=np.asarray([v for _, v in attrs], dtype=float),
                    digest=np.frombuffer(
                        self.digest().encode("ascii"), dtype=np.uint8
                    ),
                )
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(staging, path)
        except BaseException:
            if os.path.exists(staging):
                os.unlink(staging)
            raise
        return path

    @classmethod
    def load(cls, path: str) -> "StreamState":
        """Load a snapshot, re-deriving and checking its embedded digest.

        Reads compressed and uncompressed archives alike.  Link keys that
        no :meth:`save` could have written are refused before the digest
        is checked.
        """
        try:
            with np.load(path) as data:
                meta = json.loads(bytes(data["meta"]).decode("utf-8"))
                n_users = int(meta["n_users"])
                applied_seq = int(meta["applied_seq"])
                link_keys = np.asarray(data["link_keys"], dtype=np.int64)
                link_values = np.asarray(data["link_values"], dtype=float)
                attr_keys = np.asarray(data["attr_keys"], dtype=np.int64)
                attr_values = np.asarray(data["attr_values"], dtype=float)
                stored = bytes(data["digest"]).decode("ascii")
        except (
            KeyError,
            TypeError,
            ValueError,
            OSError,
            EOFError,
            zipfile.BadZipFile,
            zlib.error,
            UnicodeDecodeError,
        ) as exc:
            raise ArtifactCorruptError(
                f"cannot read state snapshot {path}: {exc}"
            ) from exc
        if n_users < 2:
            raise ArtifactCorruptError(
                f"state snapshot {path} names {n_users} users"
            )
        state = cls(n_users)
        state._load_links(path, link_keys, link_values)
        for (u, a), value in zip(attr_keys, attr_values):
            state._attributes[(int(u), int(a))] = float(value)
        state.applied_seq = applied_seq
        actual = state.digest()
        if actual != stored:
            raise ArtifactCorruptError(
                f"state snapshot {path} failed its integrity check: stored "
                f"sha256 {stored[:12]}… but content hashes to {actual[:12]}…"
            )
        return state

    def _load_links(
        self, path: str, link_keys: np.ndarray, link_values: np.ndarray
    ) -> None:
        """Fill the link dict from snapshot arrays; every code is touched,
        so the first read builds the canonical view from them."""
        if link_keys.shape != (link_values.size, 2) or link_values.ndim != 1:
            raise ArtifactCorruptError(
                f"state snapshot {path} has link arrays of shapes "
                f"{link_keys.shape} and {link_values.shape}"
            )
        rows, cols = link_keys[:, 0], link_keys[:, 1]
        if not np.all((rows >= 0) & (rows < cols) & (cols < self.n_users)):
            raise ArtifactCorruptError(
                f"state snapshot {path} holds link keys outside "
                f"0 <= u < v < {self.n_users}"
            )
        self._links = dict(
            zip(zip(rows.tolist(), cols.tolist()), link_values.tolist())
        )
        self._touched.update((rows * self.n_users + cols).tolist())
