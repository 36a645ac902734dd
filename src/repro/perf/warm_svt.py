"""Warm-started, adaptive-rank singular value thresholding.

The dominant cost of every CCCP round is the SVD inside the trace-norm
proximal step.  Consecutive forward-backward iterates differ by O(θ)
(one gradient step plus entry-wise shrinkage), so the singular subspace
the *previous* proximal step computed is an excellent starting guess for
the current one — yet a plain SVT cold-starts a full dense SVD from
scratch on every single inner iteration.

:class:`WarmStartSVT` is a stateful SVT operator built on randomized
subspace iteration (Halko, Martinsson & Tropp 2011):

1. the range-finder sketch is seeded with the previous step's retained
   right singular subspace (plus deterministic Gaussian oversampling
   columns), so one or two power iterations recover the new subspace;
2. the operating rank *adapts* to the observed spectrum: when the
   smallest computed singular value still exceeds the shrinkage
   threshold the rank doubles and the sketch is rebuilt (nothing above
   the threshold can hide outside the sketch once its smallest Ritz
   value falls below it), and when the retained rank sits well below
   the budget the rank shrinks back;
3. the result is *verified*, not hoped for: Ritz values must stabilize
   across power iterations, and every retained triplet must satisfy a
   residual bound ``≤ residual_tol · σ_max`` on the side its
   Rayleigh–Ritz step leaves inexact.  The dense path takes the triplets
   from the last refinement's ``A v = q r`` (an SVD of the small ``r``),
   which makes ``A v_i = σ_i u_i`` exact, so it checks
   ``‖Aᵀ u_i − σ_i v_i‖``; the factored path projects ``qᵀA`` and checks
   ``‖A v_i − σ_i u_i‖``.  Any doubt — including an injected
   ``solver.svd.truncated`` fault — falls back to the exact dense prox,
   so the operator is never silently lossy.

With a ``max_rank`` cap (a model's ``svd_rank``) the engine is instead
the *truncated* SVT: the rank never grows past the cap, and when
spectrum above the threshold spills past it the application is accepted
as a best-effort rank-capped prox and the loss is surfaced — a
:class:`TruncatedSVTWarning` plus the ``svt.lossy_truncations`` counter
and ``svt.tail_excess`` metric.  Because a capped operator is only
specified up to the cap's own truncation error (which is O(σ) when the
spectrum is clustered at the cap, making individual boundary triplets
ill-conditioned), capped applications verify against the proportionate
``lossy_ritz_tol`` / ``lossy_residual_tol`` instead of the exactness
tolerances — that is what lets a warm start finish in a handful of
power iterations where a cold start pays hundreds of matvecs.

Between applications the engine keeps only its warm right subspace and
its operating rank; it caches no output and no spectrum.  Per-apply
diagnostics go to the tracer (``svt.*`` metrics) and to :attr:`stats`.

Both range finders orthonormalize their tall, skinny sketch blocks with
CholeskyQR2 (:func:`_tall_qr`): two passes of Gram matrix, Cholesky
factor and triangular inverse, all numpy BLAS, with a Householder
fallback for ill-conditioned blocks.

Determinism: the oversampling columns come from a fixed-seed generator
that is re-created on every application, and everything else is plain
BLAS/LAPACK, so a given matrix sequence always produces the identical
output sequence — same-seed fits remain reproducible.
"""

from __future__ import annotations

import time
import warnings
from typing import Dict, Optional

import numpy as np

from repro.exceptions import TruncatedSVTWarning
from repro.observability.tracer import Tracer, is_tracing
from repro.optim.proximal import _dense_svd, _record_svt_metrics
from repro.reliability.faults import fault_point
from repro.utils.validation import check_non_negative

# Smallest ratio min/max of a CholeskyQR pass's R diagonal that
# CholeskyQR2 accepts.  The ratio is at least 1/κ, so a smaller one means
# κ > 1e5.  Forming XᵀX squares κ, and CholeskyQR2 is only accurate while
# u·κ² stays well below 1 (κ ≲ 1e7); the guard leaves a margin.  The
# sketch blocks of the benchmark fits reach κ ≈ 346.
_CHOLQR_MIN_DIAG_RATIO = 1e-5


def _tall_qr(block: np.ndarray):
    """Reduced ``(q, r)`` of a tall, skinny ``block`` by CholeskyQR2.

    Each pass forms the Gram matrix ``XᵀX = LLᵀ`` and maps ``X`` to
    ``X L⁻ᵀ``; the second pass, run on the first's nearly orthonormal
    output, restores orthogonality to machine precision.  Each pass is
    GEMM-shaped work where Householder reflects column by column: on one
    BLAS thread a 5000×16 block of a factored fit takes about a quarter
    of ``np.linalg.qr``'s time.  Falls back to Householder
    (``np.linalg.qr``) when a Cholesky factorization fails, when a pass's
    R is ill-conditioned (:data:`_CHOLQR_MIN_DIAG_RATIO`) or when the
    output is not finite.
    Stays on numpy: mixing in scipy's separately linked BLAS pool made
    whole fits slower.
    """
    q = block
    r = None
    for _pass in range(2):
        try:
            lower = np.linalg.cholesky(q.T @ q)
        except np.linalg.LinAlgError:
            return np.linalg.qr(block)  # qr-ok: Gram not positive definite
        diagonal = np.diagonal(lower)
        if diagonal.min() < _CHOLQR_MIN_DIAG_RATIO * diagonal.max():
            return np.linalg.qr(block)  # qr-ok: too ill-conditioned
        upper = lower.T
        q = q @ np.linalg.inv(upper)
        r = upper if r is None else upper @ r
    if not (np.isfinite(q).all() and np.isfinite(r).all()):
        return np.linalg.qr(block)  # qr-ok: non-finite CholeskyQR output
    return q, r


class WarmStartSVT:
    """Stateful SVT: warm-started randomized range finder, adaptive rank.

    Parameters
    ----------
    initial_rank:
        Starting rank guess (e.g. a model's ``svd_rank``); defaults to
        ``min_rank``.  Unlike a static cap this is only a starting point —
        the operator grows or shrinks it per step.
    max_rank:
        Optional hard ceiling on the adaptive rank.  ``None`` (default)
        means the engine is *exact*: it grows until the whole
        supra-threshold spectrum is captured (or goes dense).  A value
        makes it the rank-capped, possibly lossy truncated SVT — see the
        module docstring.
    min_rank:
        Floor of the adaptive rank.
    oversample:
        Extra sketch columns beyond the operating rank; they both
        stabilize the range finder and act as the tail probe.
    shrink_slack:
        How far the retained rank may sit below the operating rank
        before the rank is shrunk for the next application.
    ritz_tol:
        Relative stabilization tolerance on the Ritz values across power
        iterations.
    residual_tol:
        Relative residual bound every *retained* singular triplet must
        satisfy; a violation promotes the step to the exact dense prox.
    lossy_ritz_tol, lossy_residual_tol:
        The capped-mode (``max_rank`` set) counterparts of ``ritz_tol``
        and ``residual_tol``.  Proportionate to the cap's own truncation
        error rather than to machine precision: a clustered spectrum at
        the cap boundary makes individual triplets ill-conditioned, so
        demanding exactness there would force a dense fallback on every
        step of an operator that is approximate by construction.
    max_refinements:
        Power-iteration budget before giving up on the randomized path.
    dense_cutoff:
        Matrices with ``min(shape)`` at or below this size always take
        the exact dense path (a dense SVD is already cheap there, and it
        still seeds the warm subspace for later growth).
    dense_fallback_cutoff:
        Largest ``min(shape)`` at which a failed verification may still
        *recover* through the exact dense prox.  Beyond it the dense
        backstop would materialize the very O(n²) arrays the factored
        path exists to avoid, so the engine instead accepts the
        best-effort randomized triplet — warned via
        :class:`TruncatedSVTWarning` and counted in
        ``stats["unverified_accepts"]`` — keeping the memory contract
        intact at benchmark scale.  Only the factored path consults this;
        the dense path already holds a dense operand.
    seed:
        Seed of the deterministic oversampling columns.
    """

    def __init__(
        self,
        initial_rank: Optional[int] = None,
        max_rank: Optional[int] = None,
        min_rank: int = 8,
        oversample: int = 8,
        shrink_slack: int = 8,
        ritz_tol: float = 1e-11,
        residual_tol: float = 1e-9,
        lossy_ritz_tol: float = 1e-4,
        lossy_residual_tol: float = 2e-2,
        max_refinements: int = 40,
        dense_cutoff: int = 96,
        dense_fallback_cutoff: int = 2048,
        seed: int = 0x5EED,
    ):
        self.min_rank = int(min_rank)
        if self.min_rank < 1:
            raise ValueError(f"min_rank must be >= 1, got {min_rank}")
        if initial_rank is not None and int(initial_rank) < 1:
            raise ValueError(f"initial_rank must be >= 1, got {initial_rank}")
        if max_rank is not None and int(max_rank) < 1:
            raise ValueError(f"max_rank must be >= 1, got {max_rank}")
        self.max_rank = None if max_rank is None else int(max_rank)
        self.oversample = int(oversample)
        if self.oversample < 2:
            raise ValueError(f"oversample must be >= 2, got {oversample}")
        self.shrink_slack = int(shrink_slack)
        self.ritz_tol = float(ritz_tol)
        self.residual_tol = float(residual_tol)
        self.lossy_ritz_tol = float(lossy_ritz_tol)
        self.lossy_residual_tol = float(lossy_residual_tol)
        self.max_refinements = int(max_refinements)
        self.dense_cutoff = int(dense_cutoff)
        self.dense_fallback_cutoff = int(dense_fallback_cutoff)
        self.seed = int(seed)
        self.rank = max(self.min_rank, int(initial_rank or self.min_rank))
        if self.max_rank is not None:
            self.rank = min(self.rank, self.max_rank)
        self._subspace: Optional[np.ndarray] = None
        self.stats: Dict[str, float] = {
            "applies": 0,
            "factored_applies": 0,
            "dense_applies": 0,
            "dense_fallbacks": 0,
            "unverified_accepts": 0,
            "lossy_truncations": 0,
            "rank_grows": 0,
            "rank_shrinks": 0,
            "refinements": 0,
            "seconds": 0.0,
        }

    def reset(self) -> None:
        """Drop the warm subspace (rank is kept)."""
        self._subspace = None

    # ------------------------------------------------------------------
    def apply(
        self,
        matrix: np.ndarray,
        threshold: float,
        tracer: Optional[Tracer] = None,
    ) -> np.ndarray:
        """``prox_{threshold‖·‖*}(matrix)`` — exact up to ``residual_tol``."""
        threshold = check_non_negative(threshold, "threshold")
        matrix = np.asarray(matrix, dtype=float)
        start = time.perf_counter()
        self.stats["applies"] += 1
        if is_tracing(tracer):
            with tracer.span("svt"):
                output = self._apply(matrix, threshold, tracer)
        else:
            output = self._apply(matrix, threshold, tracer)
        self.stats["seconds"] += time.perf_counter() - start
        return output

    def _apply(
        self, matrix: np.ndarray, threshold: float, tracer: Optional[Tracer]
    ) -> np.ndarray:
        n_small = min(matrix.shape)
        # Every application traverses the truncated-SVT fault site: an
        # injected fault downgrades this step to the dense backstop
        # regardless of matrix size.
        try:
            fault_point("solver.svd.truncated")
        except np.linalg.LinAlgError as exc:
            return self._fallback(matrix, threshold, tracer, repr(exc))
        if n_small <= self.dense_cutoff:
            return self._apply_dense(matrix, threshold, tracer)
        # A cap at (or past) the dense regime is not actually truncating:
        # such ranks get the exact prox.
        capped = self.max_rank is not None and self.max_rank < n_small - 1
        rank_ceiling = self.max_rank if capped else n_small
        limit = None
        while True:
            budget = self.rank + self.oversample
            if budget >= n_small - 1:
                # The adaptive rank grew into the dense regime: a sketch
                # this wide costs more than the exact factorization.
                return self._apply_dense(matrix, threshold, tracer)
            can_grow = self.rank < rank_ceiling
            try:
                factors, ritz = self._randomized_factors(
                    matrix, budget, capped, threshold, can_grow
                )
            except np.linalg.LinAlgError as exc:
                return self._fallback(matrix, threshold, tracer, repr(exc))
            if factors is None:
                if ritz is not None and ritz[-1] > threshold and (
                    self.rank < rank_ceiling
                ):
                    # The Ritz values have not settled, but even their
                    # current (under-)estimates show supra-threshold
                    # spectrum beyond the sketch — e.g. a flat spectrum,
                    # where individual triplets never stabilize.  Growing
                    # is the productive move; falling back dense is not.
                    self._grow(rank_ceiling, tracer)
                    continue
                return self._fallback(
                    matrix, threshold, tracer, "refinement budget exhausted"
                )
            u, singular, vt = factors
            if singular[-1] > threshold and can_grow:
                # Even the smallest computed value survives shrinkage, so
                # spectrum above the threshold may extend beyond the
                # sketch: double the rank and resample.
                self._grow(rank_ceiling, tracer)
                continue
            break
        # Uncapped: σ_{budget+1} ≤ σ_budget = singular[-1] ≤ threshold, so
        # every direction outside the sketch is provably shrunk to zero
        # and the truncated prox is exact (up to residual_tol).  Capped:
        # the retained set stops at the cap regardless, and a
        # supra-threshold (cap+1)-th singular value means spectrum was
        # dropped: accept the best-effort rank-capped prox and surface the
        # loss.
        if capped:
            limit = self.max_rank
            if (
                singular.size > limit
                and float(singular[limit]) > threshold
            ):
                self._record_lossy(
                    float(singular[limit]) - threshold, tracer
                )
        retained = int(np.count_nonzero(singular[:limit] > threshold))
        if not self._residuals_ok(matrix, u, singular, vt, retained, capped):
            return self._fallback(
                matrix, threshold, tracer, "retained-triplet residual too large"
            )
        return self._finish(u, singular, vt, threshold, tracer, limit=limit)

    def _grow(self, rank_ceiling: int, tracer: Optional[Tracer]) -> None:
        self.rank = min(2 * self.rank, rank_ceiling)
        self.stats["rank_grows"] += 1
        if is_tracing(tracer):
            tracer.count("svt.rank_grows")

    def _record_lossy(self, excess: float, tracer: Optional[Tracer]) -> None:
        self.stats["lossy_truncations"] += 1
        warnings.warn(
            f"warm-started SVT at rank cap {self.max_rank} is lossy: the "
            "(rank+1)-th singular value exceeds the shrinkage threshold, "
            "so part of the spectrum was dropped; raise svd_rank to "
            "recover the exact prox, or inspect the 'svt.tail_excess' "
            "tracer metric for the lost magnitude",
            TruncatedSVTWarning,
            stacklevel=5,
        )
        if is_tracing(tracer):
            tracer.count("svt.lossy_truncations")
            tracer.metric("svt.tail_excess", excess)

    # ------------------------------------------------------------------
    def _randomized_factors(
        self,
        matrix: np.ndarray,
        budget: int,
        capped: bool,
        threshold: float,
        can_grow: bool,
    ):
        """``(factors, ritz)``: verified top-``budget`` triplets, or doubt.

        Randomized subspace iteration seeded from the previous retained
        right subspace.  ``factors`` is descending (u, σ, vt) when the
        Ritz values stabilized (to ``lossy_ritz_tol`` in capped mode,
        ``ritz_tol`` otherwise), else ``None``; ``ritz`` is the last Ritz
        estimate either way, so the caller can distinguish "not yet
        converged but clearly needs a wider sketch" from genuine doubt.

        When ``can_grow`` and the smallest Ritz value already exceeds the
        shrinkage threshold, the iteration bails out immediately: Ritz
        values only sharpen upward, so the sketch is certain to be too
        narrow and every further refinement on it would be wasted — the
        caller grows the rank and rebuilds instead.

        The Rayleigh–Ritz step reuses the converged refinement: it already
        holds ``A v = q r`` with orthonormal ``v`` and ``q``, so the SVD
        ``r = u_r Σ w_rᵀ`` of the small ``b×b`` factor gives
        ``U = q u_r``, ``V = v w_r`` with ``A V = U Σ``.  Projecting
        ``qᵀA`` instead would cost one more ``n×n×b`` product and a
        ``b×n`` SVD; :meth:`_residuals_ok` checks the ``Aᵀ`` side that
        this construction leaves open.
        """
        n = matrix.shape[1]
        sketch = np.empty((n, budget))
        filled = 0
        if self._subspace is not None and self._subspace.shape[0] == n:
            filled = min(self._subspace.shape[1], budget)
            sketch[:, :filled] = self._subspace[:, :filled]
        if filled < budget:
            rng = np.random.default_rng(self.seed)
            sketch[:, filled:] = rng.standard_normal((n, budget - filled))
        tolerance = self.lossy_ritz_tol if capped else self.ritz_tol
        q, r = _tall_qr(matrix @ sketch)
        estimates = np.linalg.svd(r, compute_uv=False)
        ritz = estimates
        if can_grow and ritz[-1] > threshold:
            return None, ritz
        for refinement in range(self.max_refinements):
            self.stats["refinements"] += 1
            v, _ = _tall_qr(matrix.T @ q)
            q, r = _tall_qr(matrix @ v)
            ritz = np.linalg.svd(r, compute_uv=False)
            if can_grow and ritz[-1] > threshold:
                return None, ritz
            scale = max(float(ritz[0]), np.finfo(float).tiny)
            if np.max(np.abs(ritz - estimates)) <= tolerance * scale:
                # Rayleigh–Ritz through r (see above): A (v w_r) = (q u_r) Σ.
                u_r, singular, w_rt = np.linalg.svd(r)
                return (q @ u_r, singular, w_rt @ v.T), singular
            estimates = ritz
        return None, ritz

    def _residuals_ok(
        self,
        matrix: np.ndarray,
        u: np.ndarray,
        singular: np.ndarray,
        vt: np.ndarray,
        retained: int,
        capped: bool,
    ) -> bool:
        """``‖Aᵀ u_i − σ_i v_i‖ ≤ tol · σ_max`` for every retained i.

        The triplets come from :meth:`_randomized_factors`, whose
        Rayleigh–Ritz step makes ``A v_i = σ_i u_i`` exact, so the
        residual that can still be large is the transposed one.
        """
        if retained == 0:
            return True
        image = matrix.T @ u[:, :retained]
        image -= vt[:retained].T * singular[:retained]
        worst = float(np.linalg.norm(image, axis=0).max())
        scale = max(float(singular[0]), np.finfo(float).tiny)
        tolerance = self.lossy_residual_tol if capped else self.residual_tol
        return worst <= tolerance * scale

    # ------------------------------------------------------------------
    def _apply_dense(
        self, matrix: np.ndarray, threshold: float, tracer: Optional[Tracer]
    ) -> np.ndarray:
        self.stats["dense_applies"] += 1
        u, singular, vt = _dense_svd(matrix, tracer)
        return self._finish(u, singular, vt, threshold, tracer)

    def _fallback(
        self,
        matrix: np.ndarray,
        threshold: float,
        tracer: Optional[Tracer],
        reason: str,
    ) -> np.ndarray:
        """Exact dense recovery, announced by a TruncatedSVTWarning."""
        self.stats["dense_fallbacks"] += 1
        if is_tracing(tracer):
            tracer.count("svt.dense_fallbacks")
        warnings.warn(
            "warm-started SVT could not verify its randomized subspace; "
            "falling back to the exact dense SVT for this proximal step "
            f"({reason})",
            TruncatedSVTWarning,
            stacklevel=4,
        )
        return self._apply_dense(matrix, threshold, tracer)

    def _finish(
        self,
        u: np.ndarray,
        singular: np.ndarray,
        vt: np.ndarray,
        threshold: float,
        tracer: Optional[Tracer],
        limit: Optional[int] = None,
    ) -> np.ndarray:
        """Assemble the output from triplets, keeping at most ``limit``."""
        shrunk = np.maximum(singular - threshold, 0.0)
        retained = int(np.count_nonzero(shrunk[:limit]))
        output = (u[:, :retained] * shrunk[:retained]) @ vt[:retained]
        tail = float(singular[retained]) if retained < singular.size else 0.0
        self._update_rank(retained, tracer)
        keep = min(singular.size, self.rank + self.oversample)
        self._subspace = vt[:keep].T.copy()
        if is_tracing(tracer):
            tracer.metric("svt.adaptive_rank", self.rank)
            _record_svt_metrics(tracer, threshold, retained, tail)
        return output

    # -- factored path --------------------------------------------------
    def apply_factored(self, operand, threshold: float, tracer=None):
        """``prox_{threshold‖·‖*}`` of a factored operand, as factors.

        ``operand`` is anything exposing ``shape``, ``matmat(block)``,
        ``rmatmat(block)`` and ``to_dense()`` — in practice a
        :class:`~repro.factored.estimate.FactoredEstimate`.  The
        range finder runs entirely through matvecs (O(nnz·b + nk·b) per
        sketch multiply), so no dense ``n×n`` matrix is formed unless the
        problem is small (``dense_cutoff``) or verification fails and the
        exact dense backstop takes over.  Returns a pure low-rank
        :class:`~repro.factored.estimate.FactoredEstimate` whose ``s``
        holds the shrunk singular values exactly.

        Shares the warm subspace, adaptive rank and stats with
        :meth:`apply`: the verification tolerances, capped-mode lossy
        semantics and fault sites are identical by construction.
        """
        threshold = check_non_negative(threshold, "threshold")
        start = time.perf_counter()
        self.stats["applies"] += 1
        self.stats["factored_applies"] = (
            self.stats.get("factored_applies", 0) + 1
        )
        if is_tracing(tracer):
            with tracer.span("svt"):
                output = self._apply_factored(operand, threshold, tracer)
        else:
            output = self._apply_factored(operand, threshold, tracer)
        self.stats["seconds"] += time.perf_counter() - start
        return output

    def _apply_factored(self, operand, threshold: float, tracer):
        n_small = min(operand.shape)
        try:
            fault_point("solver.svd.truncated")
        except np.linalg.LinAlgError as exc:
            return self._fallback_factored(operand, threshold, tracer, repr(exc))
        if n_small <= self.dense_cutoff:
            return self._apply_dense_factored(operand, threshold, tracer)
        capped = self.max_rank is not None and self.max_rank < n_small - 1
        rank_ceiling = self.max_rank if capped else n_small
        limit = None
        # Past the fallback cutoff a dense recovery would materialize the
        # O(n²) arrays the factored path exists to avoid: accept the
        # best-effort randomized triplet instead (warned and counted).
        may_go_dense = n_small <= self.dense_fallback_cutoff
        mm, rmm = operand.matmat, operand.rmatmat
        while True:
            budget = self.rank + self.oversample
            if budget >= n_small - 1:
                return self._apply_dense_factored(operand, threshold, tracer)
            can_grow = self.rank < rank_ceiling
            try:
                factors, ritz, converged = self._randomized_factors_op(
                    mm, rmm, n_small, budget, capped, threshold, can_grow
                )
            except np.linalg.LinAlgError as exc:
                if not may_go_dense:
                    raise
                return self._fallback_factored(
                    operand, threshold, tracer, repr(exc)
                )
            if factors is None:
                if ritz is not None and ritz[-1] > threshold and (
                    self.rank < rank_ceiling
                ):
                    self._grow(rank_ceiling, tracer)
                    continue
                return self._fallback_factored(
                    operand, threshold, tracer, "refinement budget exhausted"
                )
            u, singular, vt = factors
            if not converged:
                if may_go_dense:
                    return self._fallback_factored(
                        operand,
                        threshold,
                        tracer,
                        "refinement budget exhausted",
                    )
                self._accept_unverified(
                    "refinement budget exhausted", tracer
                )
                break
            if singular[-1] > threshold and can_grow:
                self._grow(rank_ceiling, tracer)
                continue
            break
        if capped:
            limit = self.max_rank
            if singular.size > limit and float(singular[limit]) > threshold:
                self._record_lossy(float(singular[limit]) - threshold, tracer)
        retained = int(np.count_nonzero(singular[:limit] > threshold))
        if not self._residuals_ok_op(mm, u, singular, vt, retained, capped):
            if may_go_dense:
                return self._fallback_factored(
                    operand,
                    threshold,
                    tracer,
                    "retained-triplet residual too large",
                )
            self._accept_unverified(
                "retained-triplet residual too large", tracer
            )
        return self._finish_factored(
            u, singular, vt, threshold, tracer, limit=limit
        )

    def _accept_unverified(self, reason: str, tracer) -> None:
        """Record keeping the randomized triplet past the dense cutoff."""
        self.stats["unverified_accepts"] = (
            self.stats.get("unverified_accepts", 0) + 1
        )
        if is_tracing(tracer):
            tracer.count("svt.unverified_accepts")
        warnings.warn(
            "warm-started SVT could not verify its randomized subspace "
            f"({reason}); the operand is past dense_fallback_cutoff="
            f"{self.dense_fallback_cutoff}, so the best-effort randomized "
            "triplet was kept to preserve the O(nk) memory contract",
            TruncatedSVTWarning,
            stacklevel=4,
        )

    def _randomized_factors_op(
        self, mm, rmm, n: int, budget: int, capped: bool,
        threshold: float, can_grow: bool,
    ):
        """:meth:`_randomized_factors` driven through matvec closures.

        Deliberately a sibling of the dense version rather than a shared
        implementation: it phrases every product as ``mm``/``rmm`` and
        keeps the projected Rayleigh–Ritz step (``qᵀA`` as ``rmm(q).T``),
        which makes ``Aᵀ u_i = σ_i v_i`` exact, so
        :meth:`_residuals_ok_op` checks the ``A`` side.  Unlike the dense
        version it returns triplets even when the refinements do not
        settle.

        Returns ``(factors, ritz, converged)``.  ``factors`` is ``None``
        only on the rank-growth early exits; a refinement budget that
        runs out still yields the best-effort triplet with
        ``converged=False``, so the caller can decide between the dense
        backstop (small operands) and accepting it (operands too large
        to densify).
        """
        sketch = np.empty((n, budget))
        filled = 0
        if self._subspace is not None and self._subspace.shape[0] == n:
            filled = min(self._subspace.shape[1], budget)
            sketch[:, :filled] = self._subspace[:, :filled]
        if filled < budget:
            rng = np.random.default_rng(self.seed)
            sketch[:, filled:] = rng.standard_normal((n, budget - filled))
        tolerance = self.lossy_ritz_tol if capped else self.ritz_tol
        q, r = _tall_qr(mm(sketch))
        estimates = np.linalg.svd(r, compute_uv=False)
        ritz = estimates
        if can_grow and ritz[-1] > threshold:
            return None, ritz, False
        converged = False
        for _refinement in range(self.max_refinements):
            self.stats["refinements"] += 1
            v, _ = _tall_qr(rmm(q))
            q, r = _tall_qr(mm(v))
            ritz = np.linalg.svd(r, compute_uv=False)
            if can_grow and ritz[-1] > threshold:
                return None, ritz, False
            scale = max(float(ritz[0]), np.finfo(float).tiny)
            if np.max(np.abs(ritz - estimates)) <= tolerance * scale:
                converged = True
                break
            estimates = ritz
        small = rmm(q).T  # == q.T @ A, through the operator
        u_small, singular, vt = np.linalg.svd(small, full_matrices=False)
        u = q @ u_small
        return (u, singular, vt), ritz, converged

    def _residuals_ok_op(
        self, mm, u, singular, vt, retained: int, capped: bool
    ) -> bool:
        """``‖A v_i − σ_i u_i‖ ≤ tol · σ_max`` through the matvec closure.

        The side left open by :meth:`_randomized_factors_op`'s projected
        Rayleigh–Ritz step (the dense :meth:`_residuals_ok` checks the
        other side, for the other construction).
        """
        if retained == 0:
            return True
        image = mm(vt[:retained].T)
        image -= u[:, :retained] * singular[:retained]
        worst = float(np.linalg.norm(image, axis=0).max())
        scale = max(float(singular[0]), np.finfo(float).tiny)
        tolerance = self.lossy_residual_tol if capped else self.residual_tol
        return worst <= tolerance * scale

    def _apply_dense_factored(self, operand, threshold: float, tracer):
        """Exact dense prox of a small (or unverifiable) factored operand."""
        self.stats["dense_applies"] += 1
        u, singular, vt = _dense_svd(operand.to_dense(), tracer)
        return self._finish_factored(u, singular, vt, threshold, tracer)

    def _fallback_factored(self, operand, threshold: float, tracer, reason):
        """Dense-backstop recovery for the factored path (never silent)."""
        self.stats["dense_fallbacks"] += 1
        if is_tracing(tracer):
            tracer.count("svt.dense_fallbacks")
        warnings.warn(
            "warm-started SVT could not verify its randomized subspace; "
            "falling back to the exact dense SVT for this proximal step "
            f"({reason})",
            TruncatedSVTWarning,
            stacklevel=4,
        )
        return self._apply_dense_factored(operand, threshold, tracer)

    def _finish_factored(
        self, u, singular, vt, threshold: float, tracer, limit=None
    ):
        """Assemble a low-rank estimate from triplets; keep ≤ ``limit``."""
        from repro.factored.estimate import FactoredEstimate

        shrunk = np.maximum(singular - threshold, 0.0)
        retained = int(np.count_nonzero(shrunk[:limit]))
        tail = float(singular[retained]) if retained < singular.size else 0.0
        self._update_rank(retained, tracer)
        keep = min(singular.size, self.rank + self.oversample)
        self._subspace = vt[:keep].T.copy()
        if is_tracing(tracer):
            tracer.metric("svt.adaptive_rank", self.rank)
            _record_svt_metrics(tracer, threshold, retained, tail)
        return FactoredEstimate.from_lowrank(
            np.ascontiguousarray(u[:, :retained]),
            shrunk[:retained].copy(),
            np.ascontiguousarray(vt[:retained]),
        )

    def _update_rank(self, retained: int, tracer: Optional[Tracer]) -> None:
        """Shrink the operating rank when it overshoots the retained rank."""
        ceiling = max(self.min_rank, retained + self.shrink_slack)
        if self.rank > ceiling:
            self.rank = max(self.min_rank, retained + 2)
            self.stats["rank_shrinks"] += 1
            if is_tracing(tracer):
                tracer.count("svt.rank_shrinks")

    def __repr__(self) -> str:
        return (
            f"WarmStartSVT(rank={self.rank}, max_rank={self.max_rank}, "
            f"oversample={self.oversample}, "
            f"dense_cutoff={self.dense_cutoff})"
        )
