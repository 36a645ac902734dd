"""Outer-loop driver for the factored SLAMPRED solve.

The factored counterpart of :class:`~repro.optim.cccp.CCCPSolver`: the
iterate is a :class:`~repro.factored.estimate.FactoredEstimate`
(``S = U diag(σ) Vᵀ + R``) instead of an n×n array, the smooth part is a
:class:`~repro.optim.losses.FactoredSmoothObjective` built once from the
sparse adjacency and (optionally) a factored intimacy gradient, and each
round runs the
:class:`~repro.optim.forward_backward.FactoredForwardBackwardSolver`.

Because the intimacy gradient is constant (the paper's observation that
``∇v`` does not depend on ``S``), rounds differ only in their starting
iterate — exactly as in the dense solver — so Figure-3-style per-round
norms remain meaningful, just measured in the Frobenius surrogate the
factored representation can evaluate in O(nk²).

Checkpoint/resume is a dense-path feature; the factored solver keeps its
artifacts small enough that re-running a fit is cheaper than managing
snapshots, so it deliberately does not take a ``CheckpointManager``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import OptimizationError
from repro.factored.estimate import FactoredEstimate
from repro.observability.tracer import NULL_TRACER, Tracer
from repro.optim.convergence import (
    STOP_CONVERGED,
    STOP_ITERATION_CAP,
    ConvergenceCriterion,
    IterationHistory,
)
from repro.optim.forward_backward import FactoredForwardBackwardSolver
from repro.optim.losses import FactoredSmoothObjective


@dataclass
class FactoredResult:
    """Outcome of a factored CCCP run.

    Attributes
    ----------
    estimate:
        The final factored predictor ``S = U diag(σ) Vᵀ + R``.
    history:
        Flat per-inner-iteration diagnostics across all rounds; norms are
        the Frobenius surrogates described in DESIGN.md §13.
    round_norms:
        ``‖S‖_F`` at the end of each outer round.
    n_rounds:
        Number of outer rounds executed.
    stop_reason:
        ``"converged"`` when the outer loop hit its tolerance,
        ``"iteration_cap"`` when it ran out of rounds first.
    certificate:
        The outer criterion's certificate at the last round, read on the
        Frobenius update surrogate ``‖S_r − S_{r−1}‖_F``.
    """

    estimate: FactoredEstimate
    history: IterationHistory
    round_norms: Sequence[float]
    n_rounds: int
    stop_reason: str = STOP_ITERATION_CAP
    certificate: Optional[float] = None

    @property
    def converged(self) -> bool:
        """Whether the outer loop hit its tolerance before its cap."""
        return self.stop_reason == STOP_CONVERGED


class FactoredSolver:
    """Iterative CCCP with a factored proximal inner solver.

    Parameters
    ----------
    adjacency:
        The observed adjacency ``A`` as a scipy sparse matrix (the solve
        initializes at ``A``, as the paper prescribes).
    prox_terms:
        Non-smooth terms: exactly one trace-norm prox (with
        ``apply_factored``) plus entry-wise proxes (with
        ``apply_values``), in apply order.
    intimacy:
        The constant intimacy gradient ``G`` as a
        :class:`~repro.factored.estimate.FactoredEstimate`, a scipy
        sparse matrix, or ``None`` (SLAMPRED-H).
    inner_solver:
        The per-round :class:`FactoredForwardBackwardSolver`; its
        criterion bounds the per-round inner budget.
    outer_criterion:
        Stopping rule on the outer sequence, evaluated on the Frobenius
        update surrogate.
    """

    def __init__(
        self,
        adjacency,
        prox_terms: Sequence,
        intimacy=None,
        inner_solver: Optional[FactoredForwardBackwardSolver] = None,
        outer_criterion: Optional[ConvergenceCriterion] = None,
    ):
        self.objective = FactoredSmoothObjective(adjacency, intimacy)
        self.prox_terms = list(prox_terms)
        if not self.prox_terms:
            raise OptimizationError(
                "factored solve needs at least one prox term (the SVT)"
            )
        self.inner_solver = inner_solver or FactoredForwardBackwardSolver(
            step_size=1e-3,
            criterion=ConvergenceCriterion(tolerance=1e-5, max_iterations=30),
        )
        self.outer_criterion = outer_criterion or ConvergenceCriterion(
            tolerance=1e-4, max_iterations=50
        )

    def solve(
        self,
        initial: Optional[FactoredEstimate] = None,
        tracer: Optional[Tracer] = None,
    ) -> FactoredResult:
        """Run the outer loop from ``initial`` (default: ``S₀ = A``).

        Every outer round is a ``cccp_round`` span, each inner iteration
        record is stamped with its 1-based round index and the tracer
        collects every record, mirroring the dense solver's telemetry
        shape.  The objective is not evaluated on this path.
        """
        if initial is None:
            current = FactoredEstimate.from_sparse(self.objective.adjacency)
        else:
            current = initial
            if current.shape != self.objective.adjacency.shape:
                raise OptimizationError(
                    f"initial estimate {current.shape} does not match "
                    f"adjacency {self.objective.adjacency.shape}"
                )
        history = IterationHistory()
        round_norms: list = []
        converged = False
        certificate = None
        n_rounds = 0
        tracer = NULL_TRACER if tracer is None else tracer
        for _ in range(self.outer_criterion.max_iterations):
            n_rounds += 1
            previous = current
            first_record = history.n_iterations
            with tracer.span("cccp_round"):
                current = self.inner_solver.solve(
                    previous,
                    self.objective,
                    self.prox_terms,
                    history=history,
                    tracer=tracer,
                )
            tracer.count("cccp.rounds")
            for record in history.records[first_record:]:
                record.round = n_rounds
                tracer.record_iteration(record)
            round_norms.append(float(np.sqrt(current.frobenius_sq())))
            update_norm = current.delta_frobenius(previous)
            certificate = self.outer_criterion.certificate(
                update_norm, round_norms[-1]
            )
            if self.outer_criterion.satisfied_value(
                update_norm, round_norms[-1]
            ):
                converged = True
                break
        return FactoredResult(
            estimate=current,
            history=history,
            round_norms=round_norms,
            n_rounds=n_rounds,
            stop_reason=STOP_CONVERGED if converged else STOP_ITERATION_CAP,
            certificate=certificate,
        )

    def __repr__(self) -> str:
        n = self.objective.adjacency.shape[0]
        return f"FactoredSolver(n={n}, prox_terms={len(self.prox_terms)})"
