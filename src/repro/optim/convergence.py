"""Convergence criteria and iteration history records."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.observability.records import IterationRecord
from repro.utils.matrices import l1_norm
from repro.utils.validation import check_integer, check_positive


@dataclass(frozen=True)
class ConvergenceCriterion:
    """When to declare an iterative matrix sequence converged.

    Convergence is declared when the entry-wise ℓ1 norm of the update
    ``‖S^{h} − S^{h−1}‖₁`` (the quantity Figure 3 of the paper plots) falls
    below ``tolerance``, or after ``max_iterations`` rounds.
    """

    tolerance: float = 1e-4
    max_iterations: int = 300

    def __post_init__(self) -> None:
        check_positive(self.tolerance, "tolerance")
        check_integer(self.max_iterations, "max_iterations", minimum=1)

    def satisfied(self, current: np.ndarray, previous: np.ndarray) -> bool:
        """Whether the update from ``previous`` to ``current`` is below tolerance."""
        return l1_norm(current - previous) < self.tolerance

    def satisfied_value(self, update_norm: float) -> bool:
        """:meth:`satisfied` for a caller that already has the update norm.

        The solvers compute ``‖S^h − S^{h−1}‖₁`` for the iteration record
        anyway (the dense one through its scratch buffer); this avoids
        recomputing it (and the full-size temporary) here.
        """
        return update_norm < self.tolerance


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
