"""The factored estimate value type: ``U diag(σ) Vᵀ + CSR residual``.

A :class:`FactoredEstimate` stores a square ``n×n`` matrix as a (possibly
non-orthonormal) low-rank triplet plus a sparse residual, and exposes the
operations the factored solver, the serving layer and the parity harness
need — matvecs, row extraction, entry probes, Gram-based norms and inner
products — each costing O(nk), O(nnz·k) or O(nk²), never O(n²).

``to_dense`` exists for the small-``n`` parity oracle and for tests; the
solver and serving paths never call it at scale.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy import sparse


def _empty_residual(n: int) -> sparse.csr_matrix:
    """A canonical all-zero ``n×n`` CSR residual."""
    return sparse.csr_matrix((n, n), dtype=float)


class FactoredEstimate:
    """A square matrix in factored form: ``u @ diag(s) @ vt + residual``.

    Parameters
    ----------
    u:
        Left factors, ``(n, k)``.  Not required to be orthonormal.
    s:
        Factor weights, ``(k,)``.  Kept separate so scaling the estimate
        is O(k) and singular values of SVT outputs are stored exactly.
    vt:
        Right factors, ``(k, n)``.
    residual:
        The sparse part, a ``(n, n)`` scipy CSR matrix (``None`` for an
        all-zero residual).

    Notes
    -----
    Instances are treated as immutable values by the solver: every update
    builds a new estimate (sharing factor arrays where possible), which is
    what makes convergence checks against the previous iterate safe.
    """

    __slots__ = ("u", "s", "vt", "residual")

    def __init__(
        self,
        u: np.ndarray,
        s: np.ndarray,
        vt: np.ndarray,
        residual: Optional[sparse.spmatrix] = None,
    ):
        u = np.asarray(u, dtype=float)
        s = np.asarray(s, dtype=float).ravel()
        vt = np.asarray(vt, dtype=float)
        if u.ndim != 2 or vt.ndim != 2:
            raise ValueError(
                f"u and vt must be 2-D, got {u.shape} and {vt.shape}"
            )
        n = u.shape[0]
        if vt.shape[1] != n:
            raise ValueError(
                f"u has {n} rows but vt has {vt.shape[1]} columns; the "
                "estimate must be square"
            )
        if u.shape[1] != s.size or vt.shape[0] != s.size:
            raise ValueError(
                f"rank mismatch: u {u.shape}, s ({s.size},), vt {vt.shape}"
            )
        if residual is None:
            residual = _empty_residual(n)
        else:
            residual = sparse.csr_matrix(residual, dtype=float)
            if residual.shape != (n, n):
                raise ValueError(
                    f"residual shape {residual.shape} does not match n={n}"
                )
        self.u = u
        self.s = s
        self.vt = vt
        self.residual = residual

    # -- constructors ---------------------------------------------------
    @classmethod
    def zeros(cls, n: int) -> "FactoredEstimate":
        """The all-zero ``n×n`` estimate (rank 0, empty residual)."""
        n = int(n)
        return cls(
            np.zeros((n, 0)), np.zeros(0), np.zeros((0, n)), _empty_residual(n)
        )

    @classmethod
    def from_sparse(cls, matrix: sparse.spmatrix) -> "FactoredEstimate":
        """Wrap a sparse matrix as a rank-0 estimate (residual only)."""
        matrix = sparse.csr_matrix(matrix, dtype=float)
        n = matrix.shape[0]
        return cls(np.zeros((n, 0)), np.zeros(0), np.zeros((0, n)), matrix)

    @classmethod
    def from_lowrank(
        cls, u: np.ndarray, s: np.ndarray, vt: np.ndarray
    ) -> "FactoredEstimate":
        """Wrap an SVT-style triplet as a pure low-rank estimate."""
        return cls(u, s, vt, None)

    @classmethod
    def compress(
        cls,
        matrix: np.ndarray,
        rank: int,
        residual_nnz: int = 0,
    ) -> "FactoredEstimate":
        """Factored approximation of a small dense matrix.

        Takes the top-``rank`` SVD triplets, then keeps the
        ``residual_nnz`` largest-magnitude entries of what the low-rank
        part misses as the sparse residual.  This is how the dense
        intimacy gradient enters the factored solver: the low-rank part
        carries the global ranking structure, the residual the strongest
        pairwise detail.  Only meaningful at small ``n`` (it reads the
        dense input); the factored fit path uses it exactly once per fit.
        """
        matrix = np.asarray(matrix, dtype=float)
        n = matrix.shape[0]
        rank = max(0, min(int(rank), n))
        u, singular, vt = np.linalg.svd(matrix, full_matrices=False)
        u, singular, vt = u[:, :rank], singular[:rank], vt[:rank]
        keep = (None if residual_nnz <= 0
                else min(int(residual_nnz), matrix.size))
        if keep is None:
            return cls(u, singular, vt, _empty_residual(n))
        remainder = matrix - (u * singular) @ vt
        flat = np.abs(remainder).ravel()
        if keep < flat.size:
            cutoff = np.partition(flat, flat.size - keep)[flat.size - keep]
            # A strictly-positive cutoff keeps the residual honest: exact
            # zeros of the remainder never become stored entries.
            mask = np.abs(remainder) >= max(cutoff, np.finfo(float).tiny)
        else:
            mask = remainder != 0.0
        residual = sparse.csr_matrix(np.where(mask, remainder, 0.0))
        return cls(u, singular, vt, residual)

    # -- basic properties -----------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        """The (square) dense-equivalent shape."""
        n = self.u.shape[0]
        return (n, n)

    @property
    def n_users(self) -> int:
        """Number of rows (= columns) of the represented matrix."""
        return self.u.shape[0]

    @property
    def rank(self) -> int:
        """Number of stored factor columns (not the numerical rank)."""
        return self.s.size

    @property
    def residual_nnz(self) -> int:
        """Stored entries of the sparse residual."""
        return int(self.residual.nnz)

    def memory_bytes(self) -> int:
        """Bytes held by the factors and the residual arrays (O(nk + nnz))."""
        return int(
            self.u.nbytes
            + self.s.nbytes
            + self.vt.nbytes
            + self.residual.data.nbytes
            + self.residual.indices.nbytes
            + self.residual.indptr.nbytes
        )

    # -- linear-operator protocol ---------------------------------------
    def matmat(self, block: np.ndarray) -> np.ndarray:
        """``self @ block`` for a dense ``(n,)`` or ``(n, b)`` block."""
        block = np.asarray(block, dtype=float)
        out = (self.u * self.s) @ (self.vt @ block)
        if self.residual.nnz:
            out += self.residual @ block
        return out

    def rmatmat(self, block: np.ndarray) -> np.ndarray:
        """``self.T @ block`` for a dense ``(n,)`` or ``(n, b)`` block."""
        block = np.asarray(block, dtype=float)
        out = self.vt.T @ ((self.s * (block.T @ self.u)).T
                           if block.ndim == 2
                           else self.s * (block @ self.u))
        if self.residual.nnz:
            out += self.residual.T @ block
        return out

    def rows(self, indices) -> np.ndarray:
        """Dense rows ``self[indices, :]`` — one O(k·n) matvec per row.

        This is the serving layer's scoring primitive: one user's
        candidate scores are ``u_i diag(s) Vᵀ`` plus that user's sparse
        residual row.  Every row goes through the same one-row product,
        so a row's bits do not depend on which batch it was scored in
        (one GEMM over the batch would round differently from the
        single-row GEMV, and reorder near-ties between the two).
        """
        indices = np.atleast_1d(np.asarray(indices, dtype=int))
        scaled = self.u[indices] * self.s
        out = np.empty((indices.size, self.vt.shape[1]))
        for row in range(indices.size):
            out[row] = scaled[row : row + 1] @ self.vt
        if self.residual.nnz:
            out += self.residual[indices].toarray()
        return out

    def entries(self, rows, cols) -> np.ndarray:
        """Entries ``self[rows[i], cols[i]]`` in O(m·k + m·log-ish) time."""
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        values = self.lowrank_entries(rows, cols)
        if self.residual.nnz:
            # csr fancy indexing of individual entries is O(log deg) each;
            # vectorized via the matrix interface.
            values = values + np.asarray(
                self.residual[rows, cols]
            ).ravel()
        return values

    def lowrank_entries(self, rows, cols, out=None) -> np.ndarray:
        """Entries of the low-rank part only, ``(u_r * s) · vt_c``.

        O(m·k) work for m entries.  Fewer entries than rows (a served
        score) gather, then scale, only the rows asked for.  More (the
        solver's residual support) scale ``u`` once and gather whole rows
        of a contiguous ``vtᵀ`` with ``np.take``, which beats the column
        gather from the row-major ``vt`` once m reaches n.  Both hand
        ``einsum`` C-ordered (m, k) operands holding the same products,
        so the two give the same bits.  ``out``, when given, receives the
        result; at rank 0 every entry is 0.
        """
        rows = np.asarray(rows, dtype=int)
        cols = np.asarray(cols, dtype=int)
        if rows.size < self.u.shape[0]:
            left = self.u[rows] * self.s
            right = np.ascontiguousarray(self.vt[:, cols].T)
        else:
            left = np.take(self.u * self.s, rows, axis=0)
            right = np.take(np.ascontiguousarray(self.vt.T), cols, axis=0)
        return np.einsum("ik,ik->i", left, right, out=out)

    def to_dense(self) -> np.ndarray:
        """Materialize the dense matrix — parity oracle / small-n only."""
        dense = (self.u * self.s) @ self.vt
        if self.residual.nnz:
            coo = self.residual.tocoo()
            dense[coo.row, coo.col] += coo.data
        return dense

    # -- algebra ---------------------------------------------------------
    def scaled(self, alpha: float) -> "FactoredEstimate":
        """``alpha * self`` — O(k + nnz), factors shared."""
        alpha = float(alpha)
        return FactoredEstimate(
            self.u, alpha * self.s, self.vt, self.residual.multiply(alpha)
        )

    def with_residual(
        self, residual: Optional[sparse.spmatrix]
    ) -> "FactoredEstimate":
        """A copy of this estimate with the residual replaced."""
        return FactoredEstimate(self.u, self.s, self.vt, residual)

    def lowrank_frobenius_sq(self) -> float:
        """``‖U diag(s) Vᵀ‖_F²`` via the k×k Gram matrices (O(nk²))."""
        if self.rank == 0:
            return 0.0
        us = self.u * self.s
        return float(np.sum((us.T @ us) * (self.vt @ self.vt.T)))

    def lowrank_inner(self, other: "FactoredEstimate") -> float:
        """``⟨L_self, L_other⟩`` of the two low-rank parts (O(nk²))."""
        if self.rank == 0 or other.rank == 0:
            return 0.0
        us_a = self.u * self.s
        us_b = other.u * other.s
        return float(np.sum((us_a.T @ us_b) * (self.vt @ other.vt.T)))

    def lowrank_inner_sparse(self, matrix: sparse.spmatrix) -> float:
        """``⟨L_self, M⟩`` for a sparse ``M`` (O(nnz(M)·k))."""
        coo = sparse.coo_matrix(matrix)
        if coo.nnz == 0 or self.rank == 0:
            return 0.0
        return float(
            self.lowrank_entries(coo.row, coo.col) @ coo.data
        )

    def frobenius_sq(self) -> float:
        """``‖self‖_F²`` without densifying (Gram + cross terms)."""
        value = self.lowrank_frobenius_sq()
        if self.residual.nnz:
            value += 2.0 * self.lowrank_inner_sparse(self.residual)
            value += float(np.sum(self.residual.data**2))
        return value

    def delta_frobenius(self, other: "FactoredEstimate") -> float:
        """``‖self − other‖_F`` via Gram expansions — no dense temporary.

        Expands ``‖A − B‖² = ‖A‖² − 2⟨A, B⟩ + ‖B‖²`` over the four
        low-rank/sparse blocks; small cancellation error is acceptable for
        the convergence surrogate this feeds.
        """
        diff_sparse = (self.residual - other.residual).tocsr()
        value = (
            self.lowrank_frobenius_sq()
            + other.lowrank_frobenius_sq()
            - 2.0 * self.lowrank_inner(other)
            + float(np.sum(diff_sparse.data**2))
            + 2.0 * self.lowrank_inner_sparse(diff_sparse)
            - 2.0 * other.lowrank_inner_sparse(diff_sparse)
        )
        return float(np.sqrt(max(value, 0.0)))

    # -- single-array codec ----------------------------------------------
    def pack(self) -> np.ndarray:
        """Flatten the estimate into one 1-D float array.

        Layout: a ``[n, k, nnz]`` header followed by ``u`` (row-major),
        ``s``, ``vt`` (row-major) and the residual's CSR ``data``,
        ``indices`` and ``indptr`` arrays.  Exists so consumers whose
        snapshot format holds exactly one ndarray — the round-based
        :class:`~repro.reliability.checkpoints.CheckpointManager`, which
        the sharded solver reuses for per-shard fit checkpoints — can
        round-trip a factored estimate losslessly; CSR index values are
        integers well inside float64's exact range.
        """
        residual = self.residual.tocsr()
        n, k, nnz = self.n_users, self.rank, int(residual.nnz)
        return np.concatenate(
            [
                np.array([n, k, nnz], dtype=float),
                self.u.ravel(),
                self.s,
                self.vt.ravel(),
                residual.data.astype(float),
                residual.indices.astype(float),
                residual.indptr.astype(float),
            ]
        )

    @classmethod
    def unpack(cls, packed: np.ndarray) -> "FactoredEstimate":
        """Rebuild an estimate from a :meth:`pack` array.

        Raises ``ValueError`` when the array's header is inconsistent
        with its length (a truncated or foreign snapshot).
        """
        packed = np.asarray(packed, dtype=float).ravel()
        if packed.size < 3:
            raise ValueError(
                f"packed estimate needs a [n, k, nnz] header, got "
                f"{packed.size} values"
            )
        n, k, nnz = (int(v) for v in packed[:3])
        if n < 0 or k < 0 or nnz < 0:
            raise ValueError(
                f"packed estimate header is negative: n={n}, k={k}, nnz={nnz}"
            )
        expected = 3 + 2 * n * k + k + 2 * nnz + n + 1
        if packed.size != expected:
            raise ValueError(
                f"packed estimate of {packed.size} values does not match "
                f"its header (n={n}, k={k}, nnz={nnz} needs {expected})"
            )
        cursor = 3
        u = packed[cursor:cursor + n * k].reshape(n, k)
        cursor += n * k
        s = packed[cursor:cursor + k]
        cursor += k
        vt = packed[cursor:cursor + k * n].reshape(k, n)
        cursor += k * n
        data = packed[cursor:cursor + nnz]
        cursor += nnz
        indices = packed[cursor:cursor + nnz].astype(np.int64)
        cursor += nnz
        indptr = packed[cursor:].astype(np.int64)
        residual = sparse.csr_matrix((data, indices, indptr), shape=(n, n))
        return cls(u, s, vt, residual)

    def __repr__(self) -> str:
        return (
            f"FactoredEstimate(n={self.n_users}, rank={self.rank}, "
            f"residual_nnz={self.residual_nnz})"
        )
