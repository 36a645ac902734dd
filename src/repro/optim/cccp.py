"""The proximal-operator-based CCCP solver (paper's Algorithm 1).

The objective decomposes as ``u(S) − v(S)`` with::

    u(S) = l(S, A) + γ‖S‖₁ + τ‖S‖*          (convex)
    v(S) = Σ_k α_k · int(S, X̂^k)             (convex, so −v is concave)

Each CCCP round replaces ``v`` by its linearization at the current iterate
and solves ``min_S u(S) − ⟨S, ∇v⟩`` with a forward-backward splitting solver.
Because the adapted feature slices are non-negative and ``S`` is confined to
the unit box, ``∇v = Σ_k α_k Σ_c X̂^k(c, :, :)`` is the constant matrix the
paper derives, so the linearization is exact; the outer loop still iterates
(with a bounded inner budget per round) exactly as Algorithm 1 prescribes,
and the per-round history reproduces the Figure 3 convergence curves.

Under a live tracer the solver evaluates the objective ``u(S) − ⟨S, ∇v⟩``
once per round, term by term, on the round's last iterate.  That is the
quantity CCCP never increases from one round to the next.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.exceptions import OptimizationError
from repro.observability.tracer import NULL_TRACER, Tracer, is_tracing
from repro.optim.convergence import (
    STOP_CONVERGED,
    STOP_ITERATION_CAP,
    ConvergenceCriterion,
    IterationHistory,
)
from repro.optim.forward_backward import ForwardBackwardSolver, _term_labels
from repro.optim.losses import (
    FusedSmoothObjective,
    LinearizedIntimacyTerm,
    SquaredFrobeniusLoss,
)
from repro.perf.workspace import Workspace
from repro.utils.matrices import is_square


def _as_dense_gradient(intimacy_gradient):
    """Normalize the constant ``∇v`` to a dense array or ``None``.

    Scipy sparse inputs are accepted (the degenerate linkless calibration
    returns an empty CSR instead of a dense zero matrix): an all-zero
    sparse gradient is mathematically "no transfer", so it maps to
    ``None`` without ever allocating n² zeros; a non-trivial sparse
    gradient is densified, since this dense-path solver consumes it
    entry-wise anyway.  ``np.asarray`` alone would wrap a sparse matrix
    in a 0-d object array and fail much later, inside the solve.
    """
    if intimacy_gradient is None:
        return None
    try:
        from scipy import sparse
    except ImportError:  # pragma: no cover - scipy ships with the repo
        sparse = None
    if sparse is not None and sparse.issparse(intimacy_gradient):
        if intimacy_gradient.nnz == 0:
            return None
        return np.asarray(intimacy_gradient.todense(), dtype=float)
    return np.asarray(intimacy_gradient, dtype=float)


def _objective_terms(matrix, terms: Sequence) -> Dict[str, float]:
    """Objective value per term, keyed by term label."""
    return {
        label: float(term.value(matrix))
        for label, term in zip(_term_labels(terms), terms)
    }


@dataclass
class CCCPResult:
    """Outcome of a CCCP run.

    Attributes
    ----------
    solution:
        The final predictor matrix ``S``.
    history:
        Flat per-inner-iteration diagnostics across all rounds (this is what
        Figure 3 plots).
    round_norms:
        ``‖S‖₁`` at the end of each CCCP round.
    n_rounds:
        Number of outer rounds executed.
    stop_reason:
        ``"converged"`` when the outer loop hit its tolerance,
        ``"iteration_cap"`` when it ran out of rounds first.
    certificate:
        The outer criterion's certificate at the last round: the relative
        ``‖S_r − S_{r−1}‖₁ / ‖S_r‖₁`` under a relative criterion, the
        absolute ``‖S_r − S_{r−1}‖₁`` otherwise (``None`` when no round
        ran).
    """

    solution: np.ndarray
    history: IterationHistory
    round_norms: Sequence[float]
    n_rounds: int
    resumed_from: Optional[int] = None
    """Round index of the checkpoint this run resumed from (``None`` for a
    fresh run)."""
    stop_reason: str = STOP_ITERATION_CAP
    certificate: Optional[float] = None

    @property
    def converged(self) -> bool:
        """Whether the outer loop hit its tolerance before its cap."""
        return self.stop_reason == STOP_CONVERGED


class CCCPSolver:
    """Iterative CCCP with a proximal inner solver.

    Parameters
    ----------
    loss:
        Smooth convex loss (``value``/``gradient``), e.g.
        :class:`~repro.optim.losses.SquaredFrobeniusLoss`.
    prox_terms:
        Non-smooth convex terms handled by proximal maps (ℓ1, trace norm,
        box projection).
    intimacy_gradient:
        The constant matrix ``∇v`` (``None`` or zeros disables transfer, as
        in SLAMPRED-H).
    inner_solver:
        Forward-backward solver used each round; its criterion bounds the
        per-round inner budget.
    outer_criterion:
        Stopping rule on the outer sequence ``S_cccp``.

    A plain :class:`SquaredFrobeniusLoss` is combined with the linearized
    intimacy term into one :class:`~repro.optim.losses.FusedSmoothObjective`
    whose constant ``2A + G`` is precomputed once per CCCP solve — one
    gradient evaluation per inner iteration instead of two.  Any other
    loss runs beside a separate
    :class:`~repro.optim.losses.LinearizedIntimacyTerm`.  Either way the
    traced objective is reported per unfused term.
    """

    def __init__(
        self,
        loss,
        prox_terms: Sequence,
        intimacy_gradient: Optional[np.ndarray] = None,
        inner_solver: Optional[ForwardBackwardSolver] = None,
        outer_criterion: Optional[ConvergenceCriterion] = None,
    ):
        self.loss = loss
        self.prox_terms = list(prox_terms)
        self.intimacy_gradient = _as_dense_gradient(intimacy_gradient)
        self.inner_solver = inner_solver or ForwardBackwardSolver(
            step_size=1e-3,
            criterion=ConvergenceCriterion(tolerance=1e-5, max_iterations=30),
        )
        self.outer_criterion = outer_criterion or ConvergenceCriterion(
            tolerance=1e-4, max_iterations=50
        )

    def solve(
        self,
        initial: np.ndarray,
        tracer: Optional[Tracer] = None,
        checkpoint=None,
    ) -> CCCPResult:
        """Run Algorithm 1 from ``initial`` (the paper initializes at ``A``).

        Every outer round is a ``cccp_round`` span enclosing the inner
        solver's gradient/prox spans, and each inner iteration record is
        stamped with its 1-based round index.  Under a live ``tracer`` the
        round's last record also carries the objective, broken out per
        term, evaluated once on the round's final iterate; the tracer
        collects every record.

        With a :class:`~repro.reliability.CheckpointManager` as
        ``checkpoint``, the iterate is snapshotted after each outer round
        (on the manager's cadence) and — because every CCCP round is a
        pure function of the incoming iterate — a run that finds an
        existing checkpoint resumes from it and reproduces the
        uninterrupted trajectory exactly.
        """
        tracer = NULL_TRACER if tracer is None else tracer
        current = np.asarray(initial, dtype=float)
        if not is_square(current):
            raise OptimizationError(
                f"initial matrix must be square, got shape {current.shape}"
            )
        current = current.copy()
        resumed_from = None
        resumed_norms: list = []
        start_round = 0
        converged = False
        certificate = None
        if checkpoint is not None:
            saved = checkpoint.latest()
            if saved is not None:
                if saved.solution.shape != current.shape:
                    raise OptimizationError(
                        f"checkpointed iterate {saved.solution.shape} does "
                        f"not match the problem shape {current.shape}; "
                        "point checkpoint_dir at a fresh directory"
                    )
                current = saved.solution.copy()
                resumed_norms = list(saved.round_norms)
                start_round = resumed_from = saved.round_index
                # A run whose checkpointed round converged had stopped
                # there; resuming it runs no further round.
                converged = bool(saved.meta.get("converged", False))
                certificate = saved.meta.get("certificate")
                tracer.count("cccp.resumes")
        if self.intimacy_gradient is not None and (
            self.intimacy_gradient.shape != current.shape
        ):
            raise OptimizationError(
                f"intimacy gradient shape {self.intimacy_gradient.shape} "
                f"does not match variable shape {current.shape}"
            )
        # The objective is reported term by term; the inner solver steps
        # on the fused form of the same smooth part when there is one.
        unfused = [self.loss]
        if self.intimacy_gradient is not None:
            unfused.append(LinearizedIntimacyTerm(self.intimacy_gradient))
        objective_terms = unfused + self.prox_terms
        smooth_terms = unfused
        if isinstance(self.loss, SquaredFrobeniusLoss):
            smooth_terms = [
                FusedSmoothObjective(self.loss.target, self.intimacy_gradient)
            ]
        history = IterationHistory()
        round_norms = resumed_norms
        ws = None
        n_rounds = start_round
        remaining = self.outer_criterion.max_iterations - start_round
        for _ in range(0 if converged else remaining):
            n_rounds += 1
            previous = current
            first_record = history.n_iterations
            with tracer.span("cccp_round"):
                current = self.inner_solver.solve(
                    previous,
                    smooth_terms,
                    self.prox_terms,
                    history=history,
                    tracer=tracer,
                )
            tracer.count("cccp.rounds")
            round_records = history.records[first_record:]
            if round_records and is_tracing(tracer):
                last = round_records[-1]
                last.objective_terms = _objective_terms(
                    current, objective_terms
                )
                last.objective = float(sum(last.objective_terms.values()))
            for record in round_records:
                record.round = n_rounds
                tracer.record_iteration(record)
            # Both round norms go through the inner solver's scratch buffer
            # (one workspace of its own for an inner solver without one).
            ws = Workspace.ensure(
                getattr(self.inner_solver, "workspace", None) or ws, current
            )
            round_norms.append(ws.l1_norm(current))
            update_norm = ws.l1_update_norm(current, previous)
            certificate = self.outer_criterion.certificate(
                update_norm, round_norms[-1]
            )
            converged = self.outer_criterion.satisfied_value(
                update_norm, round_norms[-1]
            )
            if checkpoint is not None and checkpoint.should_save(n_rounds):
                checkpoint.save(
                    n_rounds,
                    current,
                    round_norms,
                    meta={"converged": converged, "certificate": certificate},
                )
                tracer.count("cccp.checkpoints")
            if converged:
                break
        return CCCPResult(
            solution=current,
            history=history,
            round_norms=round_norms,
            n_rounds=n_rounds,
            resumed_from=resumed_from,
            stop_reason=STOP_CONVERGED if converged else STOP_ITERATION_CAP,
            certificate=certificate,
        )
