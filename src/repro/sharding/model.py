"""The community-sharded SLAMPRED fit: per-shard factored solves.

:class:`ShardedSlamPred` decomposes one large structural link-prediction
problem into per-community sub-problems (DESIGN.md §14): the
:class:`~repro.sharding.partition.ShardPlan` assigns every user a core
shard plus replicated anchors, each shard fits an independent factored
:class:`~repro.models.slampred.SlamPredH` on its induced sub-adjacency,
and the per-shard scores are calibrated onto one scale through the
anchors (:mod:`repro.sharding.stitching`).

Scaling properties:

* **Wall clock.**  Shard fits fan out across *processes*
  (:func:`~repro.perf.parallel.parallel_map_processes`), so Python-level
  solver work scales past the GIL; per-shard SVT rank budgets shrink
  proportionally with shard size, so even a sequential pass over shards
  is cheaper than the monolithic fit.
* **Determinism.**  Every shard's fit is a pure function of its
  sub-adjacency, its rank budget and its derived SVT seed
  (``seed + shard_index``); results are collected by shard index, so two
  same-seed fits are bit-identical regardless of worker scheduling or
  process/thread execution.
* **Parity.**  ``n_shards=1`` degenerates to the plan with every user
  core, rank and seed equal to the unsharded configuration and
  ``λ = [1.0]``, reproducing the unsharded factored trajectory exactly.
* **Recovery.**  With a checkpoint directory, each completed shard fit
  is snapshotted through
  :class:`~repro.reliability.checkpoints.CheckpointManager`
  (``<dir>/shard-000/…``) with the estimate packed into the manager's
  single-array format; a restarted fit skips shards whose checkpoint
  matches its configuration.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.exceptions import ConfigurationError, NotFittedError
from repro.factored.estimate import FactoredEstimate
from repro.observability.tracer import NullTracer, Span, Tracer
from repro.perf.parallel import parallel_map, parallel_map_processes
from repro.sharding.partition import (
    ShardPlan,
    detect_communities,
    plan_shards,
)
from repro.sharding.stitching import fit_stitch_scales
from repro.utils.validation import check_integer

_DEFAULT_SVT_SEED = 0x5EED
"""Base SVT seed — matches the unsharded WarmStartSVT default, which is
what makes shard 0 of a single-shard plan bit-identical to it."""

_CHECKPOINT_DIR_FORMAT = "shard-%03d"


def _shard_checkpoint_meta(job: Dict) -> Dict:
    """The config fingerprint a shard checkpoint must match to resume."""
    return {
        "shard": int(job["shard"]),
        "n_local": int(job["adjacency"].shape[0]),
        "svd_rank": job["svd_rank"],
        "svt_seed": int(job["svt_seed"]),
        "inner_iterations": int(job["model_kwargs"]["inner_iterations"]),
        "outer_iterations": int(job["model_kwargs"]["outer_iterations"]),
    }


def fit_shard(job: Dict) -> Dict:
    """Fit one shard's factored model — the process-pool work unit.

    A pure function of its job dict (sub-adjacency, rank budget, derived
    SVT seed, solver options), which is what makes the sharded fit's
    output independent of worker scheduling.  Module-level so it pickles
    into :func:`~repro.perf.parallel.parallel_map_processes` workers.
    When the job carries a checkpoint directory, a fresh fit writes one
    validated snapshot and a matching existing snapshot short-circuits
    the solve entirely (``resumed=True``).
    """
    from repro.models.slampred import SlamPredH
    from repro.reliability.checkpoints import CheckpointManager

    manager = None
    expected_meta = _shard_checkpoint_meta(job)
    if job.get("checkpoint_dir"):
        manager = CheckpointManager(
            job["checkpoint_dir"], every=int(job.get("checkpoint_every", 1))
        )
        snapshot = manager.latest()
        if snapshot is not None and all(
            snapshot.meta.get(key) == value
            for key, value in expected_meta.items()
        ):
            return {
                "shard": int(job["shard"]),
                "estimate": FactoredEstimate.unpack(snapshot.solution),
                "round_norms": list(snapshot.round_norms),
                "n_rounds": int(snapshot.n_rounds),
                "converged": bool(snapshot.meta.get("converged", True)),
                "resumed": True,
            }
    svt_options = dict(job["svt_options"])
    svt_options["seed"] = int(job["svt_seed"])
    model = SlamPredH(
        factored=True,
        svd_rank=job["svd_rank"],
        svt_options=svt_options,
        **job["model_kwargs"],
    )
    model.fit_adjacency(job["adjacency"])
    result = model.result
    outcome = {
        "shard": int(job["shard"]),
        "estimate": model.factored_estimate,
        "round_norms": [float(v) for v in result.round_norms],
        "n_rounds": int(result.n_rounds),
        "converged": bool(result.converged),
        "resumed": False,
    }
    if manager is not None:
        manager.save(
            max(1, outcome["n_rounds"]),
            outcome["estimate"].pack(),
            outcome["round_norms"],
            meta={**expected_meta, "converged": outcome["converged"]},
        )
    return outcome


class ShardedSlamPred:
    """Community-sharded factored SLAMPRED-H with anchor stitching.

    Parameters
    ----------
    n_shards:
        Number of shards; 1 reproduces the unsharded factored fit.
    svd_rank:
        Rank budget of the *unsharded* problem.  Each shard receives a
        proportional budget
        ``min(svd_rank, max(min_shard_rank, round(svd_rank · m_s / n)))``
        — community structure splits the spectrum across shards, so the
        total modeled rank stays comparable while every shard's SVT gets
        cheaper.  ``None`` leaves every shard's engine adaptive.
    gamma, tau, step_size, inner_iterations, outer_iterations, tolerance:
        Forwarded to every shard's
        :class:`~repro.models.slampred.SlamPredH` (same defaults).
    seed:
        Base SVT seed; shard ``s`` solves with ``seed + s``, making the
        whole fit deterministic and shard 0 of a single-shard plan
        bit-identical to an unsharded engine seeded with ``seed``.
    min_shard_rank:
        Floor of the proportional per-shard rank budget.
    anchor_fraction, max_anchors:
        Anchor replication budget, see
        :func:`~repro.sharding.partition.plan_shards`.
    use_processes:
        Fan shard fits out across processes (default); ``False`` keeps
        them on threads, which is result-identical but GIL-bound.
    max_workers:
        Worker cap for the shard fan-out.
    checkpoint_dir:
        When given, each shard checkpoints its finished fit under
        ``<checkpoint_dir>/shard-000/…`` and a refit resumes completed
        shards instead of solving them again.
    svt_options:
        Extra :class:`~repro.perf.warm_svt.WarmStartSVT` options layered
        under every shard's derived seed.  ``dense_fallback_cutoff``
        defaults to 0 on shards: sub-problems can fall under the dense
        recovery cutoff, and one O(m³) dense fallback would erase the
        entire sharding speedup (the factored contract stays O(mk)).
    tracer:
        Optional :class:`~repro.observability.Tracer` recording per-shard
        fit seconds and resume counts.
    """

    def __init__(
        self,
        n_shards: int = 2,
        svd_rank: Optional[int] = None,
        gamma: float = 0.05,
        tau: float = 1.0,
        step_size: float = 0.05,
        inner_iterations: int = 25,
        outer_iterations: int = 40,
        tolerance: float = 1e-3,
        seed: int = _DEFAULT_SVT_SEED,
        min_shard_rank: int = 2,
        anchor_fraction: float = 0.05,
        max_anchors: Optional[int] = None,
        use_processes: bool = True,
        max_workers: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 1,
        svt_options: Optional[dict] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.n_shards = check_integer(n_shards, "n_shards", minimum=1)
        self.svd_rank = (
            None
            if svd_rank is None
            else check_integer(svd_rank, "svd_rank", minimum=1)
        )
        self.gamma = float(gamma)
        self.tau = float(tau)
        self.step_size = float(step_size)
        self.inner_iterations = check_integer(
            inner_iterations, "inner_iterations", minimum=1
        )
        self.outer_iterations = check_integer(
            outer_iterations, "outer_iterations", minimum=1
        )
        self.tolerance = float(tolerance)
        self.seed = int(seed)
        self.min_shard_rank = check_integer(
            min_shard_rank, "min_shard_rank", minimum=1
        )
        self.anchor_fraction = float(anchor_fraction)
        self.max_anchors = (
            None
            if max_anchors is None
            else check_integer(max_anchors, "max_anchors", minimum=0)
        )
        self.use_processes = bool(use_processes)
        self.max_workers = (
            None
            if max_workers is None
            else check_integer(max_workers, "max_workers", minimum=1)
        )
        self.checkpoint_dir = (
            None if checkpoint_dir is None else str(checkpoint_dir)
        )
        self.checkpoint_every = check_integer(
            checkpoint_every, "checkpoint_every", minimum=1
        )
        if svt_options is not None and not isinstance(svt_options, dict):
            raise ConfigurationError(
                "svt_options must be a dict of WarmStartSVT keyword "
                f"arguments, got {type(svt_options).__name__}"
            )
        self.svt_options = dict(svt_options or {})
        self.tracer = tracer if tracer is not None else NullTracer()
        self._plan: Optional[ShardPlan] = None
        self._estimates: Optional[List[FactoredEstimate]] = None
        self._scales: Optional[np.ndarray] = None
        self._shard_stats: List[Dict] = []
        self._fit_seconds: List[float] = []

    @property
    def name(self) -> str:
        """Display name carrying the shard count."""
        return f"SLAMPRED-H-sharded[{self.n_shards}]"

    # -- fitted state ----------------------------------------------------
    def _require_fitted(self) -> None:
        if self._estimates is None:
            raise NotFittedError(f"{self.name} has not been fitted")

    @property
    def plan(self) -> ShardPlan:
        """The fitted shard plan."""
        self._require_fitted()
        return self._plan

    @property
    def estimates(self) -> List[FactoredEstimate]:
        """Per-shard fitted estimates, indexed by ``plan.members``."""
        self._require_fitted()
        return list(self._estimates)

    @property
    def scales(self) -> np.ndarray:
        """Per-shard stitching multipliers λ."""
        self._require_fitted()
        return np.array(self._scales)

    @property
    def shard_stats(self) -> List[Dict]:
        """Per-shard fit records: rounds, convergence, resume, seconds."""
        self._require_fitted()
        return [dict(entry) for entry in self._shard_stats]

    @property
    def n_users(self) -> int:
        """Users covered by the fit."""
        self._require_fitted()
        return self._plan.n_users

    # -- fitting ---------------------------------------------------------
    def shard_rank(self, members: int, n_users: int) -> Optional[int]:
        """The proportional rank budget for a shard of ``members`` users."""
        if self.svd_rank is None:
            return None
        proportional = int(round(self.svd_rank * members / n_users))
        return min(self.svd_rank, max(self.min_shard_rank, proportional))

    def _build_jobs(
        self, adjacency: sparse.csr_matrix, plan: ShardPlan
    ) -> List[Dict]:
        model_kwargs = {
            "gamma": self.gamma,
            "tau": self.tau,
            "step_size": self.step_size,
            "inner_iterations": self.inner_iterations,
            "outer_iterations": self.outer_iterations,
            "tolerance": self.tolerance,
        }
        svt_options = {"dense_fallback_cutoff": 0}
        svt_options.update(self.svt_options)
        svt_options.pop("seed", None)
        jobs = []
        for s, members in enumerate(plan.members):
            sub = adjacency[members][:, members].tocsr()
            jobs.append(
                {
                    "shard": s,
                    "adjacency": sub,
                    "svd_rank": self.shard_rank(
                        members.size, plan.n_users
                    ),
                    "svt_seed": self.seed + s,
                    "svt_options": svt_options,
                    "model_kwargs": model_kwargs,
                    "checkpoint_dir": (
                        None
                        if self.checkpoint_dir is None
                        else os.path.join(
                            self.checkpoint_dir, _CHECKPOINT_DIR_FORMAT % s
                        )
                    ),
                    "checkpoint_every": self.checkpoint_every,
                }
            )
        return jobs

    def fit(self, adjacency, labels=None) -> "ShardedSlamPred":
        """Fit every shard and stitch the scales; returns ``self``.

        Parameters
        ----------
        adjacency:
            Square scipy sparse (or csr-ifiable) structural adjacency.
        labels:
            Community label per user.  ``None`` runs the deterministic
            label-propagation fallback
            (:func:`~repro.sharding.partition.detect_communities`) —
            planted labels from the synthetic generator are both cheaper
            and better aligned with the generative structure when
            available.

        The fit runs in a ``fit`` trace of the model's tracer (a child
        span when a trace of that tracer is already bound).
        """
        with self.tracer.trace("fit"):
            return self._fit(adjacency, labels)

    def _fit(self, adjacency, labels) -> "ShardedSlamPred":
        matrix = sparse.csr_matrix(adjacency, dtype=float)
        if matrix.shape[0] != matrix.shape[1]:
            raise ConfigurationError(
                f"adjacency must be square, got shape {matrix.shape}"
            )
        if labels is None:
            with self.tracer.span("sharding.detect_communities"):
                labels = detect_communities(matrix)
        plan = plan_shards(
            labels,
            self.n_shards,
            adjacency=matrix if self.n_shards > 1 else None,
            anchor_fraction=self.anchor_fraction,
            max_anchors=self.max_anchors,
        )
        jobs = self._build_jobs(matrix, plan)
        fan_out = (
            parallel_map_processes if self.use_processes else parallel_map
        )
        with self.tracer.span("sharding.fit_shards") as fit_node:
            outcomes, seconds = fan_out(
                fit_shard, jobs, max_workers=self.max_workers
            )
        # Input order == shard order: scheduling cannot permute results.
        estimates: List[FactoredEstimate] = [None] * plan.n_shards
        stats: List[Dict] = [None] * plan.n_shards
        for outcome, spent in zip(outcomes, seconds):
            s = outcome["shard"]
            estimates[s] = outcome["estimate"]
            stats[s] = {
                "shard": s,
                "members": int(plan.members[s].size),
                "rank": int(estimates[s].rank),
                "n_rounds": outcome["n_rounds"],
                "converged": outcome["converged"],
                "resumed": outcome["resumed"],
                "seconds": float(spent),
            }
            if isinstance(fit_node, Span):
                # Graft each worker's wall time back as a child span so a
                # recorded fit shows per-shard timing under fit_shards
                # (workers ran in other processes; their spans are local).
                fit_node.children.append(
                    Span(
                        name=f"sharding.fit_shard[{s:03d}]",
                        duration=float(spent),
                    )
                )
            self.tracer.metric("sharding.shard_seconds", float(spent))
            if outcome["resumed"]:
                self.tracer.count("sharding.shard_resumed")
        with self.tracer.span("sharding.stitch"):
            scales = fit_stitch_scales(plan, estimates)
        self._plan = plan
        self._estimates = estimates
        self._scales = scales
        self._shard_stats = stats
        self._fit_seconds = list(seconds)
        return self

    # -- scoring ---------------------------------------------------------
    def score_pairs(self, pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
        """Stitched confidence for each ``(u, v)`` pair.

        A pair's score is the maximum of ``λ_s · max(S_s[u, v], 0)``
        over every shard that models both endpoints; pairs no shard
        covers (cross-community non-anchored pairs) score 0.0, exactly
        the "no evidence" convention of the sparse estimate, and the
        diagonal is pinned to 0.
        """
        self._require_fitted()
        rows = np.array([p[0] for p in pairs], dtype=np.int64)
        cols = np.array([p[1] for p in pairs], dtype=np.int64)
        if rows.size and (
            min(rows.min(), cols.min()) < 0
            or max(rows.max(), cols.max()) >= self.n_users
        ):
            raise ConfigurationError(
                f"pair indices must lie in 0..{self.n_users - 1}"
            )
        scores = np.zeros(rows.size, dtype=float)
        for s, members in enumerate(self._plan.members):
            in_shard = np.zeros(self.n_users, dtype=bool)
            in_shard[members] = True
            covered = in_shard[rows] & in_shard[cols]
            if not np.any(covered):
                continue
            local_r = self._plan.local_indices(s, rows[covered])
            local_c = self._plan.local_indices(s, cols[covered])
            values = self._scales[s] * np.maximum(
                self._estimates[s].entries(local_r, local_c), 0.0
            )
            scores[covered] = np.maximum(scores[covered], values)
        scores[rows == cols] = 0.0
        return scores

    def __repr__(self) -> str:
        fitted = self._estimates is not None
        return (
            f"ShardedSlamPred(n_shards={self.n_shards}, "
            f"svd_rank={self.svd_rank}, fitted={fitted})"
        )
