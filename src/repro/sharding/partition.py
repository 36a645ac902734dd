"""Community-driven shard planning with replicated anchor users.

The sharded solver (DESIGN.md §14) rests on the same observation the
low-rank regularizer does: users form densely connected communities, so
a partition that keeps communities together makes the off-shard part of
the adjacency sparse and each per-shard sub-problem a faithful small
SLAMPRED instance.  This module turns community labels into a
:class:`ShardPlan`:

* every user belongs to exactly one **core** shard (communities are
  greedily binned into the requested number of shards, largest first,
  so shard sizes stay balanced without randomness);
* each shard additionally replicates a bounded set of **anchor** users —
  the outside users with the most edges into the shard's core.  Anchors
  give every boundary edge a shard that sees both endpoints, and the
  replicated scores are what cross-shard stitching calibrates on.

For graphs without planted labels, :func:`detect_communities` provides a
deterministic synchronous label-propagation fallback (smallest-label
tie-breaking, fixed sweep budget), so the partitioner works on real
adjacency data too.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.exceptions import ConfigurationError
from repro.utils.validation import check_integer

_DEFAULT_ANCHOR_FRACTION = 0.05
"""Anchors replicated into a shard, as a fraction of its core size."""

_DEFAULT_DETECT_SWEEPS = 30
"""Label-propagation sweep budget of :func:`detect_communities`."""


class ShardPlan:
    """An immutable users → shards assignment with anchor replication.

    Parameters
    ----------
    shard_of:
        ``(n,)`` int array: each user's core shard id (``0..n_shards-1``).
    anchors:
        Per shard, the sorted global ids of the replicated anchor users
        (never members of that shard's core).

    Attributes
    ----------
    members:
        Per shard, the sorted global ids the shard models — its core
        users plus its anchors.  Local index ``i`` of a shard's
        sub-problem corresponds to global user ``members[shard][i]``.
    """

    def __init__(
        self,
        shard_of: np.ndarray,
        anchors: Sequence[np.ndarray],
    ):
        shard_of = np.asarray(shard_of, dtype=np.int64).ravel()
        n_shards = len(anchors)
        if n_shards < 1:
            raise ConfigurationError("a plan needs at least one shard")
        if shard_of.size == 0:
            raise ConfigurationError("a plan needs at least one user")
        if shard_of.min() < 0 or shard_of.max() >= n_shards:
            raise ConfigurationError(
                f"shard_of values must lie in 0..{n_shards - 1}, got "
                f"range [{shard_of.min()}, {shard_of.max()}]"
            )
        self.shard_of = shard_of
        self.core: Tuple[np.ndarray, ...] = tuple(
            np.flatnonzero(shard_of == s).astype(np.int64)
            for s in range(n_shards)
        )
        cleaned: List[np.ndarray] = []
        for s, shard_anchors in enumerate(anchors):
            shard_anchors = np.unique(
                np.asarray(shard_anchors, dtype=np.int64)
            )
            if shard_anchors.size and (
                shard_anchors.min() < 0
                or shard_anchors.max() >= shard_of.size
            ):
                raise ConfigurationError(
                    f"shard {s} anchors reference users outside "
                    f"0..{shard_of.size - 1}"
                )
            overlap = np.intersect1d(shard_anchors, self.core[s])
            if overlap.size:
                raise ConfigurationError(
                    f"shard {s} anchors {overlap[:5].tolist()} are already "
                    "core members; anchors must be replicated outsiders"
                )
            cleaned.append(shard_anchors)
        self.anchors: Tuple[np.ndarray, ...] = tuple(cleaned)
        self.members: Tuple[np.ndarray, ...] = tuple(
            np.union1d(core, shard_anchors)
            for core, shard_anchors in zip(self.core, self.anchors)
        )
        for s, members in enumerate(self.members):
            if members.size == 0:
                raise ConfigurationError(f"shard {s} has no members")
        shards_by_user: List[List[int]] = [[] for _ in range(shard_of.size)]
        for user, s in enumerate(shard_of):
            shards_by_user[user].append(int(s))
        for s, shard_anchors in enumerate(self.anchors):
            for user in shard_anchors:
                shards_by_user[int(user)].append(s)
        self._shards_by_user: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(entry) for entry in shards_by_user
        )

    # -- queries --------------------------------------------------------
    @property
    def n_users(self) -> int:
        """Users covered by the plan."""
        return int(self.shard_of.size)

    @property
    def n_shards(self) -> int:
        """Shards in the plan."""
        return len(self.members)

    def shards_of_user(self, user: int) -> Tuple[int, ...]:
        """Every shard that models ``user`` — its core shard first."""
        return self._shards_by_user[int(user)]

    def local_indices(self, shard: int, users) -> np.ndarray:
        """Local sub-problem indices of global ``users`` within ``shard``.

        Raises :class:`~repro.exceptions.ConfigurationError` when any of
        the users is not a member of the shard.
        """
        members = self.members[int(shard)]
        users = np.atleast_1d(np.asarray(users, dtype=np.int64))
        local = np.searchsorted(members, users)
        bad = (local >= members.size) | (members[np.minimum(local, members.size - 1)] != users)
        if np.any(bad):
            raise ConfigurationError(
                f"users {users[bad][:5].tolist()} are not members of "
                f"shard {shard}"
            )
        return local

    def shard_sizes(self) -> List[int]:
        """Member count per shard (core plus anchors)."""
        return [int(members.size) for members in self.members]

    # -- serialization ---------------------------------------------------
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Flat integer arrays for an on-disk round trip."""
        offsets = np.zeros(self.n_shards + 1, dtype=np.int64)
        for s, shard_anchors in enumerate(self.anchors):
            offsets[s + 1] = offsets[s] + shard_anchors.size
        concat = (
            np.concatenate(self.anchors)
            if offsets[-1]
            else np.zeros(0, dtype=np.int64)
        )
        return {
            "shard_of": self.shard_of,
            "anchor_concat": concat.astype(np.int64),
            "anchor_offsets": offsets,
        }

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray]) -> "ShardPlan":
        """Rebuild a plan from :meth:`to_arrays` output."""
        offsets = np.asarray(arrays["anchor_offsets"], dtype=np.int64)
        concat = np.asarray(arrays["anchor_concat"], dtype=np.int64)
        anchors = [
            concat[offsets[s]:offsets[s + 1]]
            for s in range(offsets.size - 1)
        ]
        return cls(np.asarray(arrays["shard_of"], dtype=np.int64), anchors)

    def __repr__(self) -> str:
        return (
            f"ShardPlan(n_users={self.n_users}, n_shards={self.n_shards}, "
            f"sizes={self.shard_sizes()})"
        )


def _bin_communities(
    labels: np.ndarray, n_shards: int
) -> np.ndarray:
    """Greedy balanced binning of community labels into shard ids.

    Communities are placed largest-first into the currently-smallest
    shard (ties broken by shard id, communities by label id), which is
    deterministic and keeps shard sizes within one community of each
    other for balanced inputs.  When there are fewer communities than
    shards, the largest communities are split into contiguous halves
    until every shard can receive members.
    """
    labels = np.asarray(labels, dtype=np.int64).ravel()
    groups: List[np.ndarray] = [
        np.flatnonzero(labels == value) for value in np.unique(labels)
    ]
    while len(groups) < n_shards:
        order = sorted(
            range(len(groups)),
            key=lambda g: (-groups[g].size, g),
        )
        largest = order[0]
        group = groups[largest]
        if group.size < 2:
            raise ConfigurationError(
                f"cannot split {labels.size} users into {n_shards} shards: "
                "not enough users"
            )
        half = group.size // 2
        groups[largest] = group[:half]
        groups.append(group[half:])
    shard_of = np.zeros(labels.size, dtype=np.int64)
    loads = [0] * n_shards
    order = sorted(range(len(groups)), key=lambda g: (-groups[g].size, g))
    for g in order:
        target = min(range(n_shards), key=lambda s: (loads[s], s))
        shard_of[groups[g]] = target
        loads[target] += groups[g].size
    return shard_of


def _anchor_users(
    adjacency: sparse.csr_matrix,
    core_mask: np.ndarray,
    max_anchors: int,
) -> np.ndarray:
    """Top outside users by edge count into the shard core.

    Deterministic ordering: more cross edges first, smaller user id on
    ties; users with no edge into the core are never replicated.
    """
    if max_anchors <= 0:
        return np.zeros(0, dtype=np.int64)
    core = np.flatnonzero(core_mask)
    # Column sums of the core rows: how many core users each global user
    # touches.  One sparse row-slice + reduction, no n×n temporaries.
    counts = np.asarray(
        adjacency[core].sum(axis=0)
    ).ravel()
    counts[core_mask] = 0.0
    candidates = np.flatnonzero(counts > 0)
    if candidates.size == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.lexsort((candidates, -counts[candidates]))
    return np.sort(candidates[order[:max_anchors]]).astype(np.int64)


def plan_shards(
    labels: Sequence[int],
    n_shards: int,
    adjacency=None,
    anchor_fraction: float = _DEFAULT_ANCHOR_FRACTION,
    max_anchors: Optional[int] = None,
) -> ShardPlan:
    """Build a :class:`ShardPlan` from community labels.

    Parameters
    ----------
    labels:
        Community label per user (planted via
        :func:`repro.synth.communities.assign_communities` or detected
        via :func:`detect_communities`).
    n_shards:
        Number of shards; 1 yields the trivial plan (everything core,
        no anchors), which is what makes the sharded solve reproduce
        the unsharded trajectory exactly.
    adjacency:
        Optional sparse (or csr-ifiable) adjacency used to pick anchor
        users.  Without it no anchors are replicated and stitching
        falls back to unit scales.
    anchor_fraction:
        Per-shard anchor budget as a fraction of the shard's core size
        (at least 1 when any cross edge exists).
    max_anchors:
        Hard per-shard anchor cap overriding the fraction.
    """
    labels = np.asarray(labels, dtype=np.int64).ravel()
    n_shards = check_integer(n_shards, "n_shards", minimum=1)
    if labels.size == 0:
        raise ConfigurationError("labels must cover at least one user")
    if n_shards > labels.size:
        raise ConfigurationError(
            f"cannot split {labels.size} users into {n_shards} shards"
        )
    if not 0.0 <= float(anchor_fraction) <= 1.0:
        raise ConfigurationError(
            f"anchor_fraction must lie in [0, 1], got {anchor_fraction}"
        )
    shard_of = (
        np.zeros(labels.size, dtype=np.int64)
        if n_shards == 1
        else _bin_communities(labels, n_shards)
    )
    anchors: List[np.ndarray] = [
        np.zeros(0, dtype=np.int64) for _ in range(n_shards)
    ]
    if adjacency is not None and n_shards > 1:
        matrix = sparse.csr_matrix(adjacency)
        if matrix.shape != (labels.size, labels.size):
            raise ConfigurationError(
                f"adjacency shape {matrix.shape} does not match "
                f"{labels.size} labels"
            )
        for s in range(n_shards):
            core_mask = shard_of == s
            budget = (
                int(max_anchors)
                if max_anchors is not None
                else max(1, int(round(anchor_fraction * core_mask.sum())))
            )
            anchors[s] = _anchor_users(matrix, core_mask, budget)
    return ShardPlan(shard_of, anchors)


def detect_communities(
    adjacency,
    max_sweeps: int = _DEFAULT_DETECT_SWEEPS,
) -> np.ndarray:
    """Deterministic label-propagation community detection.

    Synchronous updates: every sweep each user adopts the label carried
    by the largest total edge weight among its neighbors, breaking ties
    toward the smallest label id (and keeping the current label when it
    ties the best).  Isolated users keep their own singleton label.
    The fixed tie-breaking makes the output a pure function of the
    adjacency — no RNG — which the sharded fit's determinism contract
    requires.  Returns dense labels in ``0..n_communities-1``.
    """
    matrix = sparse.csr_matrix(adjacency, dtype=float)
    if matrix.shape[0] != matrix.shape[1]:
        raise ConfigurationError(
            f"adjacency must be square, got shape {matrix.shape}"
        )
    n = matrix.shape[0]
    max_sweeps = check_integer(max_sweeps, "max_sweeps", minimum=1)
    labels = np.arange(n, dtype=np.int64)
    for _ in range(max_sweeps):
        _, compact = np.unique(labels, return_inverse=True)
        n_labels = int(compact.max()) + 1 if n else 0
        # Neighbor label mass: adjacency @ one-hot(labels), kept sparse so
        # the sweep costs O(nnz) — never an n × n_labels dense product.
        onehot = sparse.csr_matrix(
            (np.ones(n), (np.arange(n), compact)), shape=(n, n_labels)
        )
        mass = (matrix @ onehot).tocsr()
        new_labels = compact.copy()
        for user in range(n):
            start, end = mass.indptr[user], mass.indptr[user + 1]
            if start == end:
                continue
            cols = mass.indices[start:end]
            votes = mass.data[start:end]
            winners = cols[votes >= votes.max()]
            current = compact[user]
            # Keeping a tied current label stabilizes the sweep; a fresh
            # winner is the smallest tied id — both rules are RNG-free.
            if current in winners:
                new_labels[user] = current
            else:
                new_labels[user] = int(winners.min())
        if np.array_equal(new_labels, compact):
            labels = compact
            break
        labels = new_labels
    _, final = np.unique(labels, return_inverse=True)
    return final.astype(np.int64)
