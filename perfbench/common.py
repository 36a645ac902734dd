"""Helpers shared by the workloads: inputs, statistics, result records."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import sys
from typing import Dict, List, Sequence

import numpy as np
from scipy import sparse


class Outcome:
    """What one workload run measured and checked.

    ``e2e`` and ``layers`` map metric names to values; ``attempted`` and
    ``failed`` count operations, where an operation fails when it raised,
    was refused, or its output failed a check.  ``problems`` keeps the
    first few failure messages for the report.
    """

    def __init__(self):
        self.e2e: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.lines: List[str] = []
        self.attribution = None

    def check(self, ok: bool, message: str) -> bool:
        """Count one checked operation; remember why it failed."""
        self.attempted += 1
        if not ok:
            self.fail(message, count_attempt=False)
        return ok

    def fail(self, message: str, count_attempt: bool = True) -> None:
        if count_attempt:
            self.attempted += 1
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def note(self, line: str) -> None:
        """A human-readable line for the report above the JSON result."""
        self.lines.append(line)

    @property
    def success_rate(self) -> float:
        return 1.0 - self.failed / max(1, self.attempted)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation); NaN when empty.

    A failed operation enters as ``inf`` (it missed every latency limit);
    a percentile that reaches one is ``inf``.
    """
    if len(values) == 0:
        return float("nan")
    ordered = np.sort(np.asarray(values, dtype=float))
    position = (len(ordered) - 1) * q / 100.0
    if np.isinf(ordered[int(np.ceil(position))]):
        return float("inf")
    return float(np.percentile(ordered, q))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """High-water resident set size in MiB (Linux reports KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def block_graph(n: int, degree: float, rng: np.random.Generator, n_blocks: int = 8):
    """A symmetric stochastic block model with expected degree ``degree``.

    Most links fall inside one of ``n_blocks`` communities, which a
    low-rank estimate can recover, so held-out links are predictable.
    Built block by block so generation stays O(n * degree).
    """
    block = -(-n // n_blocks)
    p_in = degree * 0.8 / block
    rows, cols = [], []
    for start in range(0, n, block):
        size = min(block, n - start)
        r, c = np.nonzero(np.triu(rng.random((size, size)) < p_in, k=1))
        rows.append(r + start)
        cols.append(c + start)
    n_cross = int(n * degree * 0.2 / 2)
    rows.append(rng.integers(0, n, n_cross))
    cols.append(rng.integers(0, n, n_cross))
    row = np.concatenate(rows)
    col = np.concatenate(cols)
    matrix = sparse.coo_matrix((np.ones(row.size), (row, col)), shape=(n, n))
    matrix = ((matrix + matrix.T) > 0).astype(float).tocsr()
    matrix.setdiag(0.0)
    matrix.eliminate_zeros()
    return matrix


def hold_out(adjacency, fraction: float, rng: np.random.Generator):
    """Split links into training links and a balanced probe set.

    Returns ``(training_csr, probe_pairs, probe_labels)``: a ``fraction``
    of the links is removed from training and paired with as many
    sampled non-links, so an AUC over the probe set is balanced.
    """
    upper = sparse.triu(adjacency, k=1).tocoo()
    held = np.zeros(upper.nnz, dtype=bool)
    held[rng.choice(upper.nnz, size=max(1, int(fraction * upper.nnz)), replace=False)] = True
    training = sparse.coo_matrix(
        (upper.data[~held], (upper.row[~held], upper.col[~held])),
        shape=adjacency.shape,
    )
    training = (training + training.T).tocsr()
    positives = list(zip(upper.row[held].tolist(), upper.col[held].tolist()))
    linked = set(zip(upper.row.tolist(), upper.col.tolist()))
    n = adjacency.shape[0]
    negatives = set()
    while len(negatives) < len(positives):
        u, v = sorted(rng.integers(0, n, size=2).tolist())
        if u != v and (u, v) not in linked:
            negatives.add((u, v))
    labels = np.concatenate([np.ones(len(positives)), np.zeros(len(negatives))])
    return training, positives + sorted(negatives), labels


def ranking_problem(ranking, k: int, user: int, n_users: int, known=None):
    """Why a top-k answer is malformed, or ``None`` when it is sound.

    Sound means: at most ``k`` distinct in-range candidates, scores in
    descending order, no self-link, and no link in ``known`` (a set of
    candidate indices already linked to ``user``).
    """
    if len(ranking) > k:
        return f"user {user}: {len(ranking)} candidates for k={k}"
    candidates = [int(c) for c, _ in ranking]
    scores = [float(s) for _, s in ranking]
    if len(set(candidates)) != len(candidates):
        return f"user {user}: duplicate candidates"
    if any(not 0 <= c < n_users for c in candidates):
        return f"user {user}: candidate out of range"
    if user in candidates:
        return f"user {user}: self-link recommended"
    if any(a < b for a, b in zip(scores, scores[1:])):
        return f"user {user}: scores not descending"
    if known is not None and known.intersection(candidates):
        return f"user {user}: known link recommended"
    return None


def source_digest(root: str) -> str:
    """Sha256 over the program's source tree, a commit stand-in."""
    hasher = hashlib.sha256()
    for folder, dirs, files in os.walk(os.path.join(root, "src", "repro")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                hasher.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    hasher.update(handle.read())
    return hasher.hexdigest()[:16]


def git_commit(root: str) -> str:
    """The checked-out commit read from ``.git`` (no git binary needed)."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(root, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def environment(root: str) -> Dict[str, object]:
    """The fingerprint every result carries."""
    import scipy

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except Exception:  # older numpy: no dict mode; the name is optional
        pass
    threads = {
        var: os.environ[var]
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        if var in os.environ
    }
    return {
        "nproc": os.cpu_count(),
        "blas": blas,
        "blas_threads": threads or f"library default (nproc={os.cpu_count()})",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "commit": git_commit(root),
        "source_sha256": source_digest(root),
        "argv": sys.argv[1:],
    }
