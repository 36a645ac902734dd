"""Warm refits: turn the current stream state into a publishable model.

:class:`WarmRefitter` owns the solver assembly the streaming pipeline runs
on every cadence tick.  Three warm-start channels make a refit cheaper
than a cold fit on the same adjacency:

* **checkpoint warm start** (dense path) — the initial CCCP iterate is
  the solution of the latest validated
  :class:`~repro.reliability.CheckpointManager` round, and each refit's
  final solution is saved back as the next round, so successive refits
  walk forward from the previous optimum instead of from ``A``;
* **retained SVT subspace** — one
  :class:`~repro.perf.warm_svt.WarmStartSVT` engine instance lives across
  refits, so the first prox of refit *t* reuses the singular subspace
  that converged in refit *t−1*;
* **factored warm start** (``factored=True``) — the previous
  :class:`~repro.factored.estimate.FactoredEstimate` seeds
  :meth:`FactoredSolver.solve(initial=…)` directly; no dense matrix is
  ever materialized.

The output is always a frozen predictor
(:class:`~repro.models.persistence.FrozenPredictor` or
:class:`~repro.models.persistence.FrozenFactoredPredictor`) ready for
``ArtifactStore.publish``.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import numpy as np
from scipy import sparse

from repro.observability.logging import get_logger
from repro.observability.metrics import NULL_REGISTRY
from repro.optim.convergence import ConvergenceCriterion
from repro.optim.cccp import CCCPSolver
from repro.optim.forward_backward import (
    FactoredForwardBackwardSolver,
    ForwardBackwardSolver,
)
from repro.optim.losses import SquaredFrobeniusLoss
from repro.optim.proximal import BoxProjection, L1Prox, TraceNormProx
from repro.models.persistence import FrozenFactoredPredictor, FrozenPredictor
from repro.perf.warm_svt import WarmStartSVT
from repro.utils.matrices import zero_diagonal

_log = get_logger("repro.streaming.refit")


class WarmRefitter:
    """Refit the sparse+low-rank estimate from the live stream state.

    Parameters
    ----------
    tau, gamma:
        Trace-norm and ℓ₁ regularization weights (paper notation).
    step_size, tolerance, inner_iterations, outer_iterations:
        Solver controls, deliberately small: a refit polishes the previous
        optimum rather than re-running a paper-scale fit.
    svd_rank:
        Rank cap shared by the SVT engine and the factored estimate.
    factored:
        Use the O(nk) factored solver (no dense allocation) instead of
        the dense CCCP path.
    checkpoint_manager:
        Optional :class:`~repro.reliability.CheckpointManager`; dense
        refits warm-start from its latest round and save their result
        back.  Ignored by the factored path (which warm-starts from the
        retained estimate instead).
    registry:
        Metrics sink for refit counters/latency.
    """

    def __init__(
        self,
        tau: float = 0.4,
        gamma: float = 0.05,
        step_size: float = 0.5,
        tolerance: float = 1e-4,
        inner_iterations: int = 30,
        outer_iterations: int = 3,
        svd_rank: int = 8,
        factored: bool = False,
        checkpoint_manager=None,
        registry=None,
    ):
        self.tau = float(tau)
        self.gamma = float(gamma)
        self.step_size = float(step_size)
        self.tolerance = float(tolerance)
        self.inner_iterations = int(inner_iterations)
        self.outer_iterations = int(outer_iterations)
        self.svd_rank = int(svd_rank)
        self.factored = bool(factored)
        self.checkpoint_manager = checkpoint_manager
        registry = registry if registry is not None else NULL_REGISTRY
        self._c_refits = registry.counter(
            "streaming.refits",
            help="Completed warm refits.",
            labels=("warm_source",),
        )
        self._h_refit = registry.histogram(
            "streaming.refit_seconds", help="Wall time of one warm refit."
        )
        # The retained engine is the warm-subspace channel: constructed
        # once, reused by every refit's TraceNormProx.
        self._svt_engine = WarmStartSVT(
            initial_rank=self.svd_rank, max_rank=self.svd_rank
        )
        self._prev_estimate = None  # factored warm start
        self.refit_count = 0
        self.last_warm_source = "cold"

    # -- warm-start sources ---------------------------------------------
    def _dense_initial(self, adjacency: np.ndarray) -> np.ndarray:
        """Latest shape-matched checkpoint solution, else ``A`` (cold)."""
        if self.checkpoint_manager is not None:
            latest = self.checkpoint_manager.latest()
            if latest is not None and latest.solution.shape == adjacency.shape:
                self.last_warm_source = "checkpoint"
                return np.array(latest.solution, dtype=float)
        self.last_warm_source = "cold"
        return adjacency

    def _assemble_prox(self):
        return [
            TraceNormProx(self.tau, engine=self._svt_engine),
            L1Prox(self.gamma),
            BoxProjection(0.0, None),
        ]

    # -- refit ----------------------------------------------------------
    def refit(self, adjacency, intimacy=None, tracer=None):
        """Solve on the given CSR adjacency; returns a frozen predictor.

        ``intimacy`` is an optional dense gradient matrix (dense path) or
        :class:`~repro.factored.estimate.FactoredEstimate` (factored
        path) carrying the cross-network term; the streaming pipeline
        passes ``None`` for the single-network refit loop.
        """
        started = time.monotonic()
        adjacency = sparse.csr_matrix(adjacency)
        if self.factored:
            predictor = self._refit_factored(adjacency, intimacy, tracer)
        else:
            predictor = self._refit_dense(adjacency, intimacy, tracer)
        self.refit_count += 1
        self._c_refits.labels(warm_source=self.last_warm_source).inc()
        self._h_refit.observe(time.monotonic() - started)
        return predictor

    def _metadata(self) -> Dict:
        return {
            "name": "StreamingRefit",
            "refit_index": self.refit_count,
            "warm_source": self.last_warm_source,
            "tau": self.tau,
            "gamma": self.gamma,
            "svd_rank": self.svd_rank,
            "factored": self.factored,
        }

    def _refit_dense(self, adjacency, intimacy, tracer) -> FrozenPredictor:
        dense = np.asarray(adjacency.todense(), dtype=float)  # dense-ok
        solver = CCCPSolver(
            loss=SquaredFrobeniusLoss(dense),
            prox_terms=self._assemble_prox(),
            intimacy_gradient=intimacy,
            inner_solver=ForwardBackwardSolver(
                step_size=self.step_size,
                criterion=ConvergenceCriterion(
                    tolerance=self.tolerance,
                    max_iterations=self.inner_iterations,
                ),
            ),
            outer_criterion=ConvergenceCriterion(
                tolerance=self.tolerance,
                max_iterations=self.outer_iterations,
            ),
        )
        result = solver.solve(self._dense_initial(dense), tracer=tracer)
        if self.checkpoint_manager is not None:
            self.checkpoint_manager.save(
                self.refit_count,
                result.solution,
                list(result.round_norms),
                meta={"source": "streaming.refit"},
            )
        scores = zero_diagonal(result.solution)
        peak = scores.max()
        if peak > 0:
            scores = scores / peak
        return FrozenPredictor(scores, metadata=self._metadata())

    def _refit_factored(
        self, adjacency, intimacy, tracer
    ) -> FrozenFactoredPredictor:
        from repro.factored.solver import FactoredSolver

        initial = self._prev_estimate
        if initial is not None and initial.n_users != adjacency.shape[0]:
            initial = None
        self.last_warm_source = "estimate" if initial is not None else "cold"
        solver = FactoredSolver(
            adjacency,
            self._assemble_prox(),
            intimacy=intimacy,
            inner_solver=FactoredForwardBackwardSolver(
                step_size=self.step_size,
                criterion=ConvergenceCriterion(
                    tolerance=self.tolerance,
                    max_iterations=self.inner_iterations,
                ),
            ),
            outer_criterion=ConvergenceCriterion(
                tolerance=self.tolerance,
                max_iterations=self.outer_iterations,
            ),
        )
        result = solver.solve(initial=initial, tracer=tracer)
        self._prev_estimate = result.estimate
        return FrozenFactoredPredictor(
            result.estimate, metadata=self._metadata()
        )
