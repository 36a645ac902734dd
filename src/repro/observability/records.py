"""Structured per-iteration telemetry records.

One :class:`IterationRecord` is produced per proximal iteration of a solver
run.  The record is the single source of truth for iteration diagnostics:
:class:`~repro.optim.convergence.IterationHistory` stores these records (its
``variable_norms`` / ``update_norms`` views are derived from them) and the
fit's :class:`~repro.observability.tracer.ActiveTrace` shares the same
objects, so the legacy history API and the run report can never drift apart.

Every record carries the two Figure-3 norms and, inside a CCCP run, its
round.  Under a live tracer the CCCP driver also evaluates the objective
once per round, on the round's last iterate, and writes it to that round's
last record.  Per-apply SVT diagnostics (retained rank, threshold, tail
singular value) live in the trace's ``svt.*`` metric streams and per-phase
wall-clock in its span tree, not on the records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional


@dataclass
class IterationRecord:
    """Diagnostics of one proximal iteration.

    Attributes
    ----------
    iteration:
        0-based index within the history the record belongs to.
    variable_norm:
        ``‖S^h‖₁`` (Figure 3, left panel).
    update_norm:
        ``‖S^h − S^{h−1}‖₁`` (Figure 3, right panel — the convergence
        criterion quantity).
    objective:
        Total objective value; set on the last record of each CCCP round
        under a live tracer.
    objective_terms:
        The same objective broken out per term (smooth losses and
        regularizers), keyed by term name.
    round:
        CCCP outer-round index (1-based) the iteration belongs to, or
        ``None`` when the solver ran outside a CCCP loop.
    """

    iteration: int
    variable_norm: float
    update_norm: float
    objective: Optional[float] = None
    objective_terms: Dict[str, float] = field(default_factory=dict)
    round: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible view (``None`` fields are dropped for brevity)."""
        payload: Dict[str, Any] = {
            "iteration": self.iteration,
            "variable_norm": float(self.variable_norm),
            "update_norm": float(self.update_norm),
        }
        if self.objective is not None:
            payload["objective"] = float(self.objective)
        if self.objective_terms:
            payload["objective_terms"] = {
                name: float(value)
                for name, value in self.objective_terms.items()
            }
        if self.round is not None:
            payload["round"] = int(self.round)
        return payload
