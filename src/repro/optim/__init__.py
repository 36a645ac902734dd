"""Optimization substrate: proximal operators, splitting solvers, CCCP.

The paper's objective is a difference of convex functions with two
non-differentiable regularizers::

    min_{S ∈ S}  l(S, A) − Σ_k α_k·int(S, X̂^k) + γ‖S‖₁ + τ‖S‖�*

Solved by the concave-convex procedure (:mod:`repro.optim.cccp`): each outer
round linearizes the concave part and hands the resulting convex problem to a
forward-backward splitting solver (:mod:`repro.optim.forward_backward`) that
alternates a gradient step with the trace-norm and ℓ1 proximal operators
(:mod:`repro.optim.proximal`).
"""

from repro.optim.proximal import (
    soft_threshold,
    soft_threshold_inplace,
    singular_value_threshold,
    L1Prox,
    TraceNormProx,
    BoxProjection,
)
from repro.optim.losses import (
    SquaredFrobeniusLoss,
    MaskedSquaredLoss,
    LinearizedIntimacyTerm,
    FusedSmoothObjective,
    empirical_link_loss,
    intimacy_score,
)
from repro.optim.convergence import ConvergenceCriterion, IterationHistory
from repro.optim.forward_backward import (
    ForwardBackwardSolver,
    GeneralizedForwardBackward,
)
from repro.optim.cccp import CCCPSolver, CCCPResult

__all__ = [
    "soft_threshold",
    "soft_threshold_inplace",
    "singular_value_threshold",
    "L1Prox",
    "TraceNormProx",
    "BoxProjection",
    "SquaredFrobeniusLoss",
    "MaskedSquaredLoss",
    "LinearizedIntimacyTerm",
    "FusedSmoothObjective",
    "empirical_link_loss",
    "intimacy_score",
    "ConvergenceCriterion",
    "IterationHistory",
    "ForwardBackwardSolver",
    "GeneralizedForwardBackward",
    "CCCPSolver",
    "CCCPResult",
]
