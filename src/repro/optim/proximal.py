"""Proximal operators for the non-differentiable regularizers.

Following Combettes & Wajs (2005), the paper handles the two regularizers
with their proximal maps:

* ℓ1 norm → entry-wise soft thresholding
  ``prox_{γ‖·‖₁}(S) = sgn(S) ∘ (|S| − γ)₊``
* trace norm → singular value thresholding
  ``prox_{τ‖·‖*}(S) = U diag((σᵢ − τ)₊) Vᵀ``

Each operator is exposed both as a plain function and as a small callable
class implementing a shared interface (``apply(matrix, step, tracer=None)``)
plus the regularizer's ``value`` so solvers can report objective values.

Every operator accepts an optional ``tracer``
(:class:`~repro.observability.tracer.Tracer`): when live, the SVT paths
record the retained rank, the effective threshold and the first discarded
singular value (``svt.*`` metrics), which is how a rank-capped SVT's
approximation loss becomes visible in run reports.  ``tracer=None`` keeps
the operators byte-for-byte on their untraced path.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.observability.tracer import Tracer, is_tracing
from repro.reliability.faults import fault_point
from repro.utils.matrices import l1_norm, trace_norm
from repro.utils.validation import check_non_negative


def soft_threshold(
    matrix: np.ndarray, threshold: float, tracer: Optional[Tracer] = None
) -> np.ndarray:
    """Entry-wise soft thresholding ``sgn(S) ∘ (|S| − t)₊``."""
    threshold = check_non_negative(threshold, "threshold")
    matrix = np.asarray(matrix, dtype=float)
    shrunk = np.sign(matrix) * np.maximum(np.abs(matrix) - threshold, 0.0)
    if is_tracing(tracer):
        tracer.metric("l1.nnz", int(np.count_nonzero(shrunk)))
    return shrunk


def soft_threshold_inplace(
    matrix: np.ndarray,
    threshold: float,
    scratch: Optional[np.ndarray] = None,
    tracer: Optional[Tracer] = None,
) -> np.ndarray:
    """Entry-wise soft thresholding that mutates ``matrix`` in place.

    Bit-identical to :func:`soft_threshold` (same element-wise operations,
    reordered into in-place form) but allocation-free when ``scratch`` — a
    same-shaped buffer for the sign mask — is provided.  Returns the
    mutated ``matrix``.
    """
    threshold = check_non_negative(threshold, "threshold")
    if scratch is None:
        scratch = np.empty_like(matrix)
    np.sign(matrix, out=scratch)
    np.abs(matrix, out=matrix)
    matrix -= threshold
    np.maximum(matrix, 0.0, out=matrix)
    matrix *= scratch
    if is_tracing(tracer):
        tracer.metric("l1.nnz", int(np.count_nonzero(matrix)))
    return matrix


def _record_svt_metrics(
    tracer: Optional[Tracer],
    threshold: float,
    retained_rank: int,
    tail: float,
) -> None:
    """Publish one SVT application's spectrum diagnostics."""
    if not is_tracing(tracer):
        return
    tracer.metric("svt.retained_rank", retained_rank)
    tracer.metric("svt.threshold", threshold)
    tracer.metric("svt.tail_singular_value", tail)


def _svd_via_eigh(matrix: np.ndarray):
    """Deterministic SVD fallback through ``eigh`` of the Gram matrix.

    ``np.linalg.svd`` occasionally fails to converge on ill-conditioned
    input (LAPACK ``gesdd``); the symmetric eigensolver is far more robust,
    and for SVT purposes the tiny singular values a Gram-based
    factorization resolves poorly are exactly the ones the threshold
    discards anyway.
    """
    gram = matrix.T @ matrix
    eigenvalues, v = np.linalg.eigh(gram)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues, v = eigenvalues[order], v[:, order]
    singular = np.sqrt(np.clip(eigenvalues, 0.0, None))
    safe = np.where(singular > 0, singular, 1.0)
    u = (matrix @ v) / safe[None, :]
    return u, singular, v.T


def _dense_svd(matrix: np.ndarray, tracer: Optional[Tracer]):
    """Dense SVD with the chaos hook and the eigh recovery path."""
    try:
        fault_point("solver.svd.dense")
        return np.linalg.svd(matrix, full_matrices=False)
    except np.linalg.LinAlgError:
        if is_tracing(tracer):
            tracer.count("svt.eigh_fallbacks")
        return _svd_via_eigh(matrix)


def singular_value_threshold(
    matrix: np.ndarray, threshold: float, tracer: Optional[Tracer] = None
) -> np.ndarray:
    """Singular value thresholding ``U diag((σᵢ − t)₊) Vᵀ``.

    A dense-SVD convergence failure (``LinAlgError``, real or injected at
    the ``solver.svd.dense`` fault site) falls back to an
    eigendecomposition of the Gram matrix (``svt.eigh_fallbacks``
    counter), so a single bad LAPACK call can no longer abort a CCCP fit.
    """
    threshold = check_non_negative(threshold, "threshold")
    matrix = np.asarray(matrix, dtype=float)
    if is_tracing(tracer):
        with tracer.span("svt"):
            u, singular, vt = _dense_svd(matrix, tracer)
    else:
        u, singular, vt = _dense_svd(matrix, tracer)
    shrunk = np.maximum(singular - threshold, 0.0)
    if is_tracing(tracer):
        retained = int(np.count_nonzero(shrunk))
        # Dense SVT is exact; the "tail" is the largest value it zeroed.
        tail = float(singular[retained]) if retained < singular.size else 0.0
        _record_svt_metrics(tracer, threshold, retained, tail)
    return (u * shrunk[None, :]) @ vt


class L1Prox:
    """The ℓ1 regularizer ``γ‖S‖₁`` with its proximal map.

    Parameters
    ----------
    weight:
        The regularization weight γ (the paper uses γ = 1.0).
    """

    def __init__(self, weight: float):
        self.weight = check_non_negative(weight, "weight")

    def value(self, matrix: np.ndarray) -> float:
        """Regularizer value ``γ‖S‖₁``."""
        return self.weight * l1_norm(matrix)

    def apply(
        self,
        matrix: np.ndarray,
        step: float,
        tracer: Optional[Tracer] = None,
    ) -> np.ndarray:
        """``prox_{step·γ‖·‖₁}`` — soft threshold at ``step * γ``."""
        return soft_threshold(matrix, step * self.weight, tracer=tracer)

    def apply_inplace(
        self,
        matrix: np.ndarray,
        step: float,
        scratch: Optional[np.ndarray] = None,
        tracer: Optional[Tracer] = None,
    ) -> np.ndarray:
        """Allocation-free :meth:`apply` variant; mutates ``matrix``."""
        return soft_threshold_inplace(
            matrix, step * self.weight, scratch=scratch, tracer=tracer
        )

    def apply_values(
        self,
        values: np.ndarray,
        step: float,
        tracer: Optional[Tracer] = None,
    ) -> np.ndarray:
        """:meth:`apply` on a flat array of entry values.

        The factored solver's entry-wise prox acts on the iterate's
        values over the sparse support Ω only (the off-support part stays
        with the low-rank block — DESIGN.md §13); this is the same soft
        threshold applied to that value vector.
        """
        return soft_threshold(values, step * self.weight, tracer=tracer)

    def __repr__(self) -> str:
        return f"L1Prox(weight={self.weight})"


class TraceNormProx:
    """The trace-norm regularizer ``τ‖S‖*`` with its proximal map.

    Parameters
    ----------
    weight:
        The regularization weight τ (the paper uses τ = 1.0).
    engine:
        A stateful SVT operator (duck-typed; in practice
        :class:`~repro.perf.warm_svt.WarmStartSVT`) that takes over the
        proximal map.  The engine warm-starts each application from the
        previous one, and a rank cap (the models' ``svd_rank``) lives on
        it.  Without an engine every application is the exact dense SVT.
        :meth:`value` does not consult it: the objective is evaluated once
        per CCCP round, so one SVD there is cheap.
    """

    def __init__(self, weight: float, engine=None):
        self.weight = check_non_negative(weight, "weight")
        self.engine = engine

    def value(self, matrix: np.ndarray) -> float:
        """Regularizer value ``τ‖S‖*``."""
        return self.weight * trace_norm(matrix)

    def apply(
        self,
        matrix: np.ndarray,
        step: float,
        tracer: Optional[Tracer] = None,
    ) -> np.ndarray:
        """``prox_{step·τ‖·‖*}`` — singular value threshold at ``step * τ``."""
        if self.engine is not None:
            return self.engine.apply(matrix, step * self.weight, tracer=tracer)
        return singular_value_threshold(
            matrix, step * self.weight, tracer=tracer
        )

    def apply_factored(
        self,
        estimate,
        step: float,
        tracer: Optional[Tracer] = None,
    ):
        """:meth:`apply` on a factored operand, returning factors.

        With an engine, this is
        :meth:`~repro.perf.warm_svt.WarmStartSVT.apply_factored` — the
        range finder runs through the operand's matvecs and no dense
        matrix is formed.  Without one, the operand is densified (small-n
        oracle path), SVT'd exactly, and re-wrapped as a pure low-rank
        estimate.
        """
        if self.engine is not None:
            return self.engine.apply_factored(
                estimate, step * self.weight, tracer=tracer
            )
        from repro.factored.estimate import FactoredEstimate

        u, singular, vt = _dense_svd(estimate.to_dense(), tracer)
        shrunk = np.maximum(singular - step * self.weight, 0.0)
        retained = int(np.count_nonzero(shrunk))
        if is_tracing(tracer):
            tail = (
                float(singular[retained])
                if retained < singular.size
                else 0.0
            )
            _record_svt_metrics(
                tracer, step * self.weight, retained, tail
            )
        return FactoredEstimate.from_lowrank(
            np.ascontiguousarray(u[:, :retained]),
            shrunk[:retained].copy(),
            np.ascontiguousarray(vt[:retained]),
        )

    def __repr__(self) -> str:
        if self.engine is not None:
            return (
                f"TraceNormProx(weight={self.weight}, engine={self.engine!r})"
            )
        return f"TraceNormProx(weight={self.weight})"


class BoxProjection:
    """Projection onto the admissible set ``S = [low, high]^{n×n}``.

    The paper constrains the predictor to confidence scores; the admissible
    set used throughout the reproduction is the unit box ``[0, 1]``.
    Implemented as a prox (of the box indicator) so solvers can treat it
    uniformly with the regularizers — its ``value`` is 0 inside the box.
    Pass ``high=None`` for the non-negative orthant (no upper bound); scores
    are then rescaled into [0, 1] after optimization.
    """

    def __init__(self, low: float = 0.0, high: float = 1.0):
        if high is not None and low > high:
            raise ValueError(f"low ({low}) must not exceed high ({high})")
        self.low = float(low)
        self.high = None if high is None else float(high)

    def value(self, matrix: np.ndarray) -> float:
        """0 everywhere (solvers only evaluate it on feasible iterates)."""
        return 0.0

    def apply(
        self,
        matrix: np.ndarray,
        step: float,
        tracer: Optional[Tracer] = None,
    ) -> np.ndarray:
        """Clip entries to the box (step is irrelevant for projections)."""
        return np.clip(matrix, self.low, self.high)

    def apply_inplace(
        self,
        matrix: np.ndarray,
        step: float,
        scratch: Optional[np.ndarray] = None,
        tracer: Optional[Tracer] = None,
    ) -> np.ndarray:
        """Allocation-free :meth:`apply` variant; mutates ``matrix``."""
        np.clip(matrix, self.low, self.high, out=matrix)
        return matrix

    def apply_values(
        self,
        values: np.ndarray,
        step: float,
        tracer: Optional[Tracer] = None,
    ) -> np.ndarray:
        """:meth:`apply` on a flat array of entry values (factored path)."""
        return np.clip(np.asarray(values, dtype=float), self.low, self.high)

    def __repr__(self) -> str:
        return f"BoxProjection(low={self.low}, high={self.high})"
