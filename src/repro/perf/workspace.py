"""Preallocated buffers for the forward-backward inner loop.

Every seed-solver iteration allocated at least four n×n temporaries
(the zero-initialized gradient accumulator, one array per smooth term's
gradient, the gradient-step iterate and the entry-wise prox outputs).
At the paper's 5k-user scale each of those is 200 MB of traffic per
iteration, so the allocator — not the FPU — sets the pace.

A :class:`Workspace` owns the handful of buffers the loop actually
needs: a gradient accumulator, a scratch array for out-parameter
accumulation / in-place proxes, and a ping-pong pair for the
gradient-step iterate (two, so the new iterate never overwrites the
previous one that convergence checks still read).  Buffers are reused
across iterations *and* across CCCP rounds; the solver copies the final
iterate out before returning whenever it still aliases workspace memory.

Workspaces are not thread-safe: one solver instance, one workspace.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


class Workspace:
    """Reusable buffers sized to one solver problem.

    Attributes
    ----------
    gradient:
        Accumulator for the summed smooth-term gradient.
    scratch:
        General-purpose temporary (gradient accumulation of secondary
        terms, sign masks of the in-place soft threshold, norm diffs).
    """

    def __init__(self, shape: Tuple[int, ...], dtype=np.float64):
        self.shape = tuple(shape)
        self.dtype = np.dtype(dtype)
        self.gradient = np.empty(shape, dtype=dtype)
        self.scratch = np.empty(shape, dtype=dtype)
        self._step = (
            np.empty(shape, dtype=dtype),
            np.empty(shape, dtype=dtype),
        )
        self._flip = 0

    @classmethod
    def ensure(
        cls, workspace: Optional["Workspace"], matrix: np.ndarray
    ) -> "Workspace":
        """Return ``workspace`` if it fits ``matrix``, else a fresh one."""
        if (
            workspace is not None
            and workspace.shape == matrix.shape
            and workspace.dtype == matrix.dtype
        ):
            return workspace
        return cls(matrix.shape, dtype=matrix.dtype)

    def step_buffer(self, avoid: Optional[np.ndarray] = None) -> np.ndarray:
        """The next ping-pong iterate buffer, never ``avoid`` itself.

        ``avoid`` is the previous iterate: after a step-halving recovery
        both ping-pong slots can end up on the same side, and handing the
        caller the buffer it is about to read from would corrupt the
        convergence check.
        """
        buffer = self._step[self._flip]
        if buffer is avoid:
            self._flip ^= 1
            buffer = self._step[self._flip]
        self._flip ^= 1
        return buffer

    def owns(self, array: np.ndarray) -> bool:
        """Whether ``array`` is one of this workspace's buffers.

        The solver uses this to decide if its final iterate must be
        copied out before the workspace is reused.
        """
        return (
            array is self.gradient
            or array is self.scratch
            or array is self._step[0]
            or array is self._step[1]
        )

    def l1_norm(self, matrix: np.ndarray) -> float:
        """``Σ|M_ij|`` computed through the scratch buffer (no temporary)."""
        np.abs(matrix, out=self.scratch)
        return float(self.scratch.sum())

    def l1_update_norm(self, current: np.ndarray, previous: np.ndarray) -> float:
        """``Σ|C_ij − P_ij|`` computed through the scratch buffer."""
        np.subtract(current, previous, out=self.scratch)
        np.abs(self.scratch, out=self.scratch)
        return float(self.scratch.sum())

    def __repr__(self) -> str:
        return f"Workspace(shape={self.shape}, dtype={self.dtype})"


class FactoredWorkspace:
    """Reusable buffers for the factored forward-backward inner loop.

    The factored iteration's entry-wise work happens on the fixed sparse
    support Ω (DESIGN.md §13): every iteration extracts the low-rank
    iterate's values over Ω, proxes them, and rebuilds the CSR residual
    on the same pattern.  This workspace pins Ω's index arrays once
    (shared by every residual the loop builds — no per-iteration index
    copies) and owns the O(nnz) value buffers.

    Parameters
    ----------
    pattern:
        A scipy CSR matrix whose sparsity pattern *is* Ω (values are
        ignored).  Canonicalized (sorted indices) on ingestion.
    """

    def __init__(self, pattern):
        from scipy import sparse

        pattern = sparse.csr_matrix(pattern)
        pattern.sum_duplicates()
        pattern.sort_indices()
        self.n = int(pattern.shape[0])
        self.indptr = pattern.indptr.copy()
        self.indices = pattern.indices.copy()
        self.rows = np.repeat(
            np.arange(self.n), np.diff(self.indptr)
        ).astype(self.indices.dtype)
        self.nnz = int(self.indices.size)
        self.values = np.empty(self.nnz)
        self.scratch = np.empty(self.nnz)

    @classmethod
    def ensure(cls, workspace, pattern) -> "FactoredWorkspace":
        """Return ``workspace`` if it matches ``pattern``'s Ω, else rebuild."""
        from scipy import sparse

        candidate = sparse.csr_matrix(pattern)
        if (
            workspace is not None
            and workspace.n == candidate.shape[0]
            and workspace.nnz == candidate.nnz
            and np.array_equal(workspace.indptr, candidate.indptr)
            and np.array_equal(workspace.indices, candidate.indices)
        ):
            return workspace
        return cls(candidate)

    def lowrank_entries(self, estimate) -> np.ndarray:
        """The low-rank part's values over Ω, written into ``values``.

        O(nnz·k) work through :meth:`FactoredEstimate.lowrank_entries`;
        the gather temporaries are transient, the result buffer is reused
        across iterations — a caller that still needs these values after
        the next call must copy them out.
        """
        return estimate.lowrank_entries(self.rows, self.indices, out=self.values)

    def residual_values(self, residual) -> np.ndarray:
        """A sparse matrix's entries on Ω as a new vector (0 where unstored).

        Entries off Ω are dropped; the solver builds Ω to cover its
        initial residual, so nothing is lost there.
        """
        if residual.nnz == 0:
            return np.zeros(self.nnz)
        return np.asarray(residual[self.rows, self.indices]).ravel()

    def residual_from(self, data: np.ndarray):
        """A CSR residual over Ω from a data vector (indices shared)."""
        from scipy import sparse

        return sparse.csr_matrix(
            (data, self.indices, self.indptr), shape=(self.n, self.n)
        )

    def __repr__(self) -> str:
        return f"FactoredWorkspace(n={self.n}, nnz={self.nnz})"
