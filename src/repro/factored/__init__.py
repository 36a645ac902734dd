"""Factored sparse + low-rank estimate representation.

The SLAMPRED objective's own structure — trace norm pushes the estimate
toward low rank, ℓ1 pushes it toward sparsity — implies the explicit
decomposition ``S = U diag(σ) Vᵀ + R`` with ``R`` sparse ("Estimation of
Simultaneously Sparse and Low Rank Matrices").  This package makes that
decomposition a first-class value type
(:class:`~repro.factored.estimate.FactoredEstimate`) plus a solver
(:class:`~repro.factored.solver.FactoredSolver`) that runs the paper's
proximal CCCP entirely on factors, never materializing a dense ``n×n``
matrix: O(nk + nnz) memory instead of O(n²).

The dense solver (:class:`~repro.optim.cccp.CCCPSolver`) remains the
parity oracle — see ``tests/parity/`` and DESIGN.md §13.
"""

from repro.factored.estimate import FactoredEstimate
from repro.factored.solver import FactoredResult, FactoredSolver

__all__ = ["FactoredEstimate", "FactoredResult", "FactoredSolver"]
