"""Convergence criteria and iteration history records."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.observability.records import IterationRecord
from repro.utils.matrices import l1_norm
from repro.utils.validation import check_integer, check_positive


STOP_CONVERGED = "converged"
STOP_ITERATION_CAP = "iteration_cap"


@dataclass(frozen=True)
class ConvergenceCriterion:
    """When to declare an iterative matrix sequence converged.

    The certificate is the entry-wise ℓ1 norm of the update
    ``‖S^{h} − S^{h−1}‖₁`` (the quantity Figure 3 of the paper plots).
    With ``relative=False`` (the seed rule) the sequence has converged when
    that norm falls below ``tolerance``.  With ``relative=True`` the
    certificate is scale-free, ``r_h = ‖S^{h} − S^{h−1}‖₁ / ‖S^{h}‖₁``,
    and the sequence has converged when ``r_h ≤ tolerance``.  For a
    forward-backward iteration ``S^{h} = T(S^{h−1})``, so ``r_h`` is the
    relative fixed-point residual of the prox-gradient map ``T``.  Either
    way the run stops after ``max_iterations`` at the latest.

    The absolute rule does not scale with the problem: at n = 763 a
    tolerance of 1e-3 allows about 1.7e-9 per entry, which a rank-capped
    fit never reaches.  The relative rule reads the same at any n.  The
    dense :class:`~repro.optim.forward_backward.ForwardBackwardSolver` and
    both CCCP drivers read it; the factored and generalized inner solvers
    stop on the absolute rule only.
    """

    tolerance: float = 1e-4
    max_iterations: int = 300
    relative: bool = False

    def __post_init__(self) -> None:
        check_positive(self.tolerance, "tolerance")
        check_integer(self.max_iterations, "max_iterations", minimum=1)

    def certificate(self, update_norm: float, norm: float = None) -> float:
        """The stopping certificate for one update.

        ``update_norm`` is ``‖S^{h} − S^{h−1}‖`` and ``norm`` is
        ``‖S^{h}‖``; the absolute rule ignores ``norm``.  A zero iterate
        certifies only a zero update.
        """
        if not self.relative:
            return float(update_norm)
        if norm is None:
            raise ValueError("a relative criterion needs the iterate's norm")
        if norm > 0:
            return float(update_norm) / float(norm)
        return 0.0 if update_norm == 0 else float("inf")

    def satisfied(self, current: np.ndarray, previous: np.ndarray) -> bool:
        """Whether the update from ``previous`` to ``current`` is below tolerance.

        Allocates one full-size temporary; the solvers compute the norms
        through their workspaces and call :meth:`satisfied_value`.
        """
        norm = l1_norm(current) if self.relative else None
        return self.satisfied_value(l1_norm(current - previous), norm)

    def satisfied_value(self, update_norm: float, norm: float = None) -> bool:
        """:meth:`satisfied` for a caller that already has the norms."""
        if not self.relative:
            return update_norm < self.tolerance
        return self.certificate(update_norm, norm) <= self.tolerance


class IterationHistory:
    """Per-iteration diagnostics of a solver run.

    Backed by a list of
    :class:`~repro.observability.records.IterationRecord` — the same
    objects a live :class:`~repro.observability.tracer.Tracer` collects —
    so the legacy norm views and the telemetry run report read one
    bookkeeping path.

    The constructor still accepts the historical parallel lists
    (``variable_norms``, ``update_norms``, ``objective_values``) and zips
    them into records.

    Attributes
    ----------
    records:
        The underlying iteration records, in order.
    variable_norms:
        ``‖S^h‖₁`` per iteration (Figure 3, left panel).
    update_norms:
        ``‖S^h − S^{h−1}‖₁`` per iteration (Figure 3, right panel).
    objective_values:
        The objective values recorded so far (under a live tracer the CCCP
        driver records one per round).
    """

    def __init__(
        self,
        variable_norms: Optional[Sequence[float]] = None,
        update_norms: Optional[Sequence[float]] = None,
        objective_values: Optional[Sequence[float]] = None,
    ):
        self.records: List[IterationRecord] = []
        if variable_norms is None and update_norms is None:
            return
        variable_norms = list(variable_norms or [])
        update_norms = list(update_norms or [])
        if len(variable_norms) != len(update_norms):
            raise ValueError(
                f"{len(variable_norms)} variable norms but "
                f"{len(update_norms)} update norms"
            )
        objectives = list(objective_values or [])
        for index, (variable, update) in enumerate(
            zip(variable_norms, update_norms)
        ):
            self.records.append(
                IterationRecord(
                    iteration=index,
                    variable_norm=float(variable),
                    update_norm=float(update),
                    objective=(
                        float(objectives[index])
                        if index < len(objectives)
                        else None
                    ),
                )
            )

    @property
    def variable_norms(self) -> List[float]:
        return [record.variable_norm for record in self.records]

    @property
    def update_norms(self) -> List[float]:
        return [record.update_norm for record in self.records]

    @property
    def objective_values(self) -> List[float]:
        return [
            record.objective
            for record in self.records
            if record.objective is not None
        ]

    def record_norms(
        self, variable_norm: float, update_norm: float
    ) -> IterationRecord:
        """Append one iteration's norms; returns the new record.

        Solvers compute both norms themselves (through workspace buffers
        on the dense path, from factors on the factored one); the CCCP
        driver later stamps the record's round and, under a live tracer,
        the round's objective.
        """
        record = IterationRecord(
            iteration=len(self.records),
            variable_norm=float(variable_norm),
            update_norm=float(update_norm),
        )
        self.records.append(record)
        return record

    @property
    def n_iterations(self) -> int:
        """Number of recorded iterations."""
        return len(self.records)

    def extend(self, other: "IterationHistory") -> None:
        """Concatenate another history (used to chain CCCP rounds).

        Records are shared, not copied; their ``iteration`` indices keep
        the numbering of the history that produced them.
        """
        self.records.extend(other.records)
