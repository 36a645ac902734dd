"""SLAMPRED — sparse and low-rank matrix estimation based link prediction.

The paper's full pipeline (Section III):

1. extract intimacy feature tensors for the target (from its *training*
   structure) and for every aligned source network;
2. when anchors exist, fit the :class:`~repro.adaptation.DomainAdapter` and
   obtain adapted tensors ``X̂^t, X̂^1, …, X̂^K`` re-indexed onto the target's
   user pairs;
3. form the constant intimacy gradient
   ``∇v = α_t · Σ_c |X̂^t(c,:,:)| + Σ_k α_k · Σ_c |X̂^k(c,:,:)|``
   (the paper's formula; absolute values make the ℓ1 intimacy term's
   gradient correct regardless of latent-feature signs — slices are
   max-normalized first so feature families contribute comparably);
4. run the proximal-operator CCCP (Algorithm 1) from ``S = A`` with the
   squared-Frobenius loss, the τ trace-norm prox, the γ ℓ1 prox and the
   projection onto the admissible set (the non-negative orthant; scores are
   rescaled into [0, 1] after optimization so the predictor is a confidence
   function as Definition 3 requires).

The regularization defaults are recalibrated to the synthetic substrate's
scale (the paper's γ = τ = 1 applies to its crawled Twitter matrix): see
DESIGN.md §5 and the ablation benchmarks for the sensitivity analysis.

Variants:

* :class:`SlamPred` — full model (structure + attributes + sources);
* :class:`SlamPredT` — target network only (structure + attributes);
* :class:`SlamPredH` — homogeneous: target structure only.

Every variant also accepts ``factored=True``, which swaps the dense n×n
iterate for the O(nk) :class:`~repro.factored.estimate.FactoredEstimate`
representation end to end (DESIGN.md §13): the solve runs on factors, the
fitted predictor stores ``U diag(σ) Vᵀ + R`` and scoring a pair costs one
O(k) dot product.  The dense path (and its ``exact=True`` bit-exact seed
numerics) remains the parity oracle the test suite checks the factored
path against.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.adaptation.adapter import (
    DomainAdapter,
    align_source_to_target,
    anchored_target_mask,
)
from repro.features.intimacy import IntimacyFeatureExtractor
from repro.features.tensor import FeatureTensor
from repro.models.base import MatrixPredictor, TransferTask
from repro.observability.report import RunReport, build_run_report
from repro.observability.tracer import NullTracer, Tracer, is_tracing
from repro.optim.cccp import CCCPResult, CCCPSolver
from repro.optim.convergence import ConvergenceCriterion
from repro.optim.forward_backward import ForwardBackwardSolver
from repro.optim.losses import SquaredFrobeniusLoss
from repro.optim.proximal import BoxProjection, L1Prox, TraceNormProx
from repro.perf.parallel import parallel_map
from repro.perf.warm_svt import WarmStartSVT
from repro.exceptions import ConfigurationError, NotFittedError
from repro.utils.matrices import zero_diagonal
from repro.utils.validation import (
    check_integer,
    check_non_negative,
    check_positive,
)


# Near-lossless compression of the (dense, rank-spread) intimacy gradient
# for the factored solve: top singular directions plus the largest-|·|
# residual entries, sized as a multiple of the adjacency's nnz.
_FACTORED_GRADIENT_RANK = 128
_FACTORED_GRADIENT_RESIDUAL_MULTIPLE = 8


class SlamPred(MatrixPredictor):
    """The full SLAMPRED model.

    Parameters
    ----------
    alpha_target:
        Weight α_t of the target's intimacy term.
    alpha_sources:
        Weight α_k of each source's intimacy term — a scalar applied to all
        sources or one value per source.
    learn_alphas:
        When True (default), the final combination of the target intimacy
        and the transferred affinities is *calibrated on the training
        structure* (a logistic stacking over the component scores and the
        anchor-coverage indicators) instead of using the fixed α weights
        directly; the fixed α still scale each component before stacking,
        so α = 0 removes a component exactly (Figures 4/5 still sweep
        them).  This automates the careful α selection the paper performs
        by validation (Section IV-D2).
    gamma:
        ℓ1 (sparsity) regularization weight (paper: 1.0).
    tau:
        Trace-norm (low-rank) regularization weight (paper: 1.0).
    mu:
        Anchor-cost weight inside the domain adaptation (paper: 1.0).
    intimacy_scale:
        Overall multiplier on the intimacy gradient ∇v.  The calibrated
        gradient lives in [0, 1] while the loss gradient spans [−2, 2];
        the multiplier balances the two so the trace-norm/ℓ1 corrections
        refine rather than drown the intimacy ranking (see the
        gradient-scale ablation benchmark).
    svd_rank:
        Starting rank of the warm-started SVT engine (and, on the exact
        path, the rank of the legacy truncated Lanczos SVD) — the
        scalable path for networks with thousands of users.
    exact:
        When True, fit with the seed solver's bit-exact numerics: legacy
        cold-start SVT, sequential smooth terms, allocating inner loop.
        The default False enables the hot path — the warm-started
        adaptive-rank SVT engine, the fused smooth objective and the
        workspace-backed inner loop (DESIGN.md §12); predictions match
        the exact path to the SVT's verified residual tolerance.
    factored:
        When True, run the solve on the factored O(nk) representation
        (DESIGN.md §13): no n×n array is formed during fitting, the
        fitted predictor is a
        :class:`~repro.factored.estimate.FactoredEstimate` exposed via
        :attr:`factored_estimate`, and pair scores are unnormalized
        ``max(S_ij, 0)`` entries (a positive rescaling of the dense
        path's peak-normalized scores — AUC and top-k rankings are
        unaffected).  Mutually exclusive with ``exact``; the intimacy
        gradient, when present, is compressed to rank
        ``min(n − 1, 128)`` plus its largest-magnitude residual entries
        before the solve.
    svt_options:
        Extra keyword arguments for the
        :class:`~repro.perf.warm_svt.WarmStartSVT` engine on the hot and
        factored paths (``seed``, ``dense_fallback_cutoff``, tolerance
        knobs, …), layered over the rank settings derived from
        ``svd_rank``.  This is how the sharded solver gives every shard
        its own deterministic SVT seed and disables the dense recovery
        fallback on sub-problems small enough to qualify for it.
        Ignored on the ``exact`` path, which pins the legacy engine.
    n_jobs:
        Thread count for the per-source intimacy extraction and transfer
        pipeline (``None`` picks a bounded default; 1 forces the
        sequential path).
    latent_dimension:
        Shared latent feature dimension ``c``.
    step_size:
        Proximal gradient learning rate θ (paper: 0.001; the default here is
        larger because the surrogate loss is well conditioned and the
        evaluation sweeps many fits — see DESIGN.md).
    inner_iterations:
        Proximal steps per CCCP round.
    outer_iterations:
        Maximum CCCP rounds.
    tolerance:
        ℓ1 convergence tolerance on both loops.
    instances_per_network:
        Link-instance sample size for fitting the adaptation; ``None``
        scales with the target size (see
        :class:`~repro.adaptation.DomainAdapter`).
    extractor:
        Intimacy feature extractor (defaults to the full feature set).
    use_attributes, use_sources:
        Ablation switches (the -T / -H variants preset them).
    tracer:
        Optional :class:`~repro.observability.Tracer`.  When live, the fit
        is traced end to end (feature extraction → adaptation → CCCP rounds
        → gradient/prox/SVD spans) and :meth:`run_report` can archive the
        run; the default ``None`` (or a :class:`NullTracer`) keeps fitting
        bit-identical to the uninstrumented model.

    Examples
    --------
    >>> from repro.synth import generate_aligned_pair
    >>> from repro.models import SlamPred, TransferTask
    >>> aligned = generate_aligned_pair(scale=60, random_state=3)
    >>> task = TransferTask.from_aligned(aligned, random_state=3)
    >>> model = SlamPred().fit(task)
    >>> model.score_matrix.shape == (aligned.target.n_users,) * 2
    True
    """

    def __init__(
        self,
        alpha_target: float = 1.0,
        alpha_sources=1.0,
        gamma: float = 0.05,
        tau: float = 1.0,
        mu: float = 1.0,
        intimacy_scale: float = 4.0,
        svd_rank: Optional[int] = None,
        latent_dimension: int = 5,
        step_size: float = 0.05,
        inner_iterations: int = 25,
        outer_iterations: int = 40,
        tolerance: float = 1e-3,
        instances_per_network: Optional[int] = None,
        extractor: IntimacyFeatureExtractor = None,
        use_attributes: bool = True,
        use_sources: bool = True,
        learn_alphas: bool = True,
        exact: bool = False,
        factored: bool = False,
        svt_options: Optional[dict] = None,
        n_jobs: Optional[int] = None,
        display_name: str = None,
        tracer: Optional[Tracer] = None,
    ):
        super().__init__()
        self.learn_alphas = bool(learn_alphas)
        self.alpha_target = check_non_negative(alpha_target, "alpha_target")
        if np.isscalar(alpha_sources):
            self.alpha_sources = [check_non_negative(alpha_sources, "alpha_sources")]
            self._broadcast_alpha = True
        else:
            self.alpha_sources = [
                check_non_negative(a, f"alpha_sources[{i}]")
                for i, a in enumerate(alpha_sources)
            ]
            self._broadcast_alpha = False
        self.gamma = check_non_negative(gamma, "gamma")
        self.tau = check_non_negative(tau, "tau")
        self.mu = check_non_negative(mu, "mu")
        self.intimacy_scale = check_positive(intimacy_scale, "intimacy_scale")
        if svd_rank is None:
            self.svd_rank = None
        else:
            self.svd_rank = check_integer(svd_rank, "svd_rank", minimum=1)
        self.latent_dimension = check_integer(
            latent_dimension, "latent_dimension", minimum=1
        )
        self.step_size = check_positive(step_size, "step_size")
        self.inner_iterations = check_integer(
            inner_iterations, "inner_iterations", minimum=1
        )
        self.outer_iterations = check_integer(
            outer_iterations, "outer_iterations", minimum=1
        )
        self.tolerance = check_positive(tolerance, "tolerance")
        if instances_per_network is None:
            self.instances_per_network = None
        else:
            self.instances_per_network = check_integer(
                instances_per_network, "instances_per_network", minimum=2
            )
        self.extractor = extractor or IntimacyFeatureExtractor()
        self.use_attributes = bool(use_attributes)
        self.use_sources = bool(use_sources)
        if self.use_sources and not self.use_attributes:
            raise ConfigurationError(
                "use_sources requires use_attributes (transfer is carried "
                "by attribute features)"
            )
        self.exact = bool(exact)
        self.factored = bool(factored)
        if self.exact and self.factored:
            raise ConfigurationError(
                "exact and factored are mutually exclusive: exact pins the "
                "dense seed numerics, factored never forms the dense iterate"
            )
        if svt_options is None:
            self.svt_options = {}
        elif isinstance(svt_options, dict):
            self.svt_options = dict(svt_options)
        else:
            raise ConfigurationError(
                f"svt_options must be a dict of WarmStartSVT keyword "
                f"arguments, got {type(svt_options).__name__}"
            )
        if n_jobs is None:
            self.n_jobs = None
        else:
            self.n_jobs = check_integer(n_jobs, "n_jobs", minimum=1)
        self._display_name = display_name or self._default_name()
        self.tracer = tracer
        self._result: Optional[CCCPResult] = None
        self._factored_estimate = None
        self._adapter: Optional[DomainAdapter] = None
        self._checkpoint_manager = None
        self._svt_engine: Optional[WarmStartSVT] = None

    def _default_name(self) -> str:
        if self.use_sources:
            return "SLAMPRED"
        return "SLAMPRED-T" if self.use_attributes else "SLAMPRED-H"

    @property
    def name(self) -> str:
        return self._display_name

    @property
    def result(self) -> CCCPResult:
        """The solve record (history feeds the Figure 3 reproduction).

        A :class:`~repro.optim.cccp.CCCPResult` on the dense path, a
        :class:`~repro.factored.solver.FactoredResult` when the model was
        constructed with ``factored=True``; both carry ``history``,
        ``round_norms``, ``n_rounds`` and ``converged``.
        """
        if self._result is None:
            raise NotFittedError(f"{self.name} has not been fitted")
        return self._result

    @property
    def factored_estimate(self):
        """The fitted O(nk) estimate (``factored=True`` models only)."""
        if not self.factored:
            raise ConfigurationError(
                f"{self.name} was fitted densely; construct the model with "
                "factored=True for a factored estimate"
            )
        if self._factored_estimate is None:
            raise NotFittedError(f"{self.name} has not been fitted")
        return self._factored_estimate

    @property
    def adapter(self) -> Optional[DomainAdapter]:
        """The fitted domain adapter, or ``None`` when transfer was skipped."""
        return self._adapter

    @property
    def _tracer(self) -> Tracer:
        """The configured tracer, or the shared free null tracer."""
        return self.tracer if self.tracer is not None else _NULL_TRACER

    def run_report(self, name: str = None, meta: dict = None) -> RunReport:
        """Archive the traced fit as a :class:`~repro.observability.RunReport`.

        Requires the model to have been constructed with a live tracer and
        fitted; the report carries the model configuration, the CCCP
        outcome, the span tree and every iteration record.
        """
        if self._result is None:
            raise NotFittedError(f"{self.name} has not been fitted")
        if not is_tracing(self.tracer):
            raise ConfigurationError(
                "run_report needs a live tracer; construct the model with "
                "tracer=Tracer()"
            )
        solution = getattr(self._result, "solution", None)
        n_users = (
            int(solution.shape[0])
            if solution is not None
            else int(self._result.estimate.n_users)
        )
        merged_meta = {
            "model": self.name,
            "gamma": self.gamma,
            "tau": self.tau,
            "step_size": self.step_size,
            "svd_rank": self.svd_rank,
            "n_users": n_users,
            "n_rounds": self._result.n_rounds,
            "converged": self._result.converged,
        }
        merged_meta.update(meta or {})
        return build_run_report(
            self.tracer, name=name or self.name, meta=merged_meta
        )

    # ------------------------------------------------------------------
    def fit(
        self,
        task: TransferTask,
        checkpoint_dir: Optional[str] = None,
        checkpoint_every: int = 1,
    ) -> "SlamPred":
        """Train on a transfer task; returns ``self`` for chaining.

        Parameters
        ----------
        task:
            The transfer problem to fit.
        checkpoint_dir:
            When given, every ``checkpoint_every``-th CCCP round writes an
            atomic, digest-validated checkpoint into this directory
            (:class:`~repro.reliability.CheckpointManager`), and a fit
            that finds existing checkpoints there **resumes** from the
            newest valid one — a killed run replays the remaining rounds
            and lands on the uninterrupted trajectory exactly (CCCP rounds
            are pure functions of the iterate).
        checkpoint_every:
            Checkpoint cadence in CCCP rounds.
        """
        if checkpoint_dir is None:
            self._checkpoint_manager = None
        else:
            from repro.reliability.checkpoints import CheckpointManager

            self._checkpoint_manager = CheckpointManager(
                checkpoint_dir, every=checkpoint_every
            )
        try:
            return super().fit(task)
        finally:
            self._checkpoint_manager = None

    def resume(
        self, task: TransferTask, checkpoint_dir: str
    ) -> "SlamPred":
        """Continue a killed fit from its newest valid checkpoint.

        A convenience wrapper over ``fit(task, checkpoint_dir=...)`` that
        *requires* a resumable checkpoint to exist, so an operator typo in
        the directory fails loudly instead of silently refitting from
        scratch.
        """
        from repro.reliability.checkpoints import CheckpointManager

        if CheckpointManager(checkpoint_dir).latest() is None:
            raise ConfigurationError(
                f"no resumable checkpoint found in {checkpoint_dir!r}; "
                "use fit(task, checkpoint_dir=...) for a fresh run"
            )
        return self.fit(task, checkpoint_dir=checkpoint_dir)

    def _build_svt_engine(self) -> WarmStartSVT:
        """The warm-started SVT engine: rank caps layered with svt_options."""
        options = {"initial_rank": self.svd_rank, "max_rank": self.svd_rank}
        options.update(self.svt_options)
        try:
            return WarmStartSVT(**options)
        except TypeError as exc:
            raise ConfigurationError(
                f"invalid svt_options for WarmStartSVT: {exc}"
            ) from exc

    def _fit(self, task: TransferTask) -> None:
        tracer = self._tracer
        adjacency = task.training_graph.adjacency
        with tracer.span("intimacy_gradient"):
            gradient = self._intimacy_gradient(task)
        if gradient is not None:
            gradient = self.intimacy_scale * gradient
        if self.factored:
            from scipy import sparse

            self._fit_factored(sparse.csr_matrix(adjacency), gradient)
            return
        loss = SquaredFrobeniusLoss(adjacency)
        if self.exact:
            self._svt_engine = None
        else:
            # svd_rank caps the engine exactly like it capped the legacy
            # truncated path: the fast path is then a warm-started drop-in
            # for the same rank-capped (possibly lossy) operator.
            self._svt_engine = self._build_svt_engine()
        prox_terms = [
            TraceNormProx(
                self.tau, max_rank=self.svd_rank, engine=self._svt_engine
            ),
            L1Prox(self.gamma),
            BoxProjection(0.0, None),
        ]
        inner = ForwardBackwardSolver(
            step_size=self.step_size,
            criterion=ConvergenceCriterion(
                tolerance=self.tolerance, max_iterations=self.inner_iterations
            ),
        )
        solver = CCCPSolver(
            loss=loss,
            prox_terms=prox_terms,
            intimacy_gradient=gradient,
            inner_solver=inner,
            outer_criterion=ConvergenceCriterion(
                tolerance=self.tolerance, max_iterations=self.outer_iterations
            ),
            fuse_smooth=not self.exact,
        )
        with tracer.span("cccp"):
            self._result = solver.solve(
                adjacency,
                tracer=tracer,
                checkpoint=self._checkpoint_manager,
            )
        scores = zero_diagonal(self._result.solution)
        peak = scores.max()
        if peak > 0:
            scores = scores / peak
        self._score_matrix = scores

    def fit_adjacency(self, adjacency) -> "SlamPred":
        """Fit the factored homogeneous model straight from an adjacency.

        The large-scale entry point: no :class:`TransferTask`, no feature
        extraction — just the structural solve on a scipy sparse (or
        csr-ifiable) adjacency.  Requires ``factored=True`` and
        ``use_attributes=False`` (the intimacy pipeline needs the full
        heterogeneous task); returns ``self`` for chaining.  This is what
        the ``bench_factored`` benchmark drives at sizes the dense path
        cannot allocate.
        """
        from scipy import sparse

        if not self.factored:
            raise ConfigurationError(
                "fit_adjacency requires factored=True; the dense path "
                "fits through a TransferTask"
            )
        if self.use_attributes:
            raise ConfigurationError(
                "fit_adjacency is structural-only; use the homogeneous "
                "variant (use_attributes=False) or fit a TransferTask"
            )
        matrix = sparse.csr_matrix(adjacency, dtype=float)
        if matrix.shape[0] != matrix.shape[1]:
            raise ConfigurationError(
                f"adjacency must be square, got shape {matrix.shape}"
            )
        self._fit_factored(matrix, None)
        self._fitted = True
        return self

    def _fit_factored(self, adjacency, gradient) -> None:
        """Run the O(nk) solve (DESIGN.md §13) on a sparse adjacency."""
        from scipy import sparse

        from repro.factored.estimate import FactoredEstimate
        from repro.factored.solver import FactoredSolver
        from repro.optim.forward_backward import FactoredForwardBackwardSolver

        if self._checkpoint_manager is not None:
            raise ConfigurationError(
                "checkpointing is a dense-path feature; factored fits "
                "store O(nk) artifacts and are cheap to re-run"
            )
        tracer = self._tracer
        if gradient is None:
            intimacy = None
        elif sparse.issparse(gradient):
            intimacy = (
                None
                if gradient.nnz == 0
                else FactoredEstimate.from_sparse(gradient)
            )
        else:
            gradient = np.asarray(gradient, dtype=float)
            n = gradient.shape[0]
            rank = max(1, min(n - 1, _FACTORED_GRADIENT_RANK))
            residual_nnz = min(
                gradient.size,
                _FACTORED_GRADIENT_RESIDUAL_MULTIPLE
                * max(int(adjacency.nnz), n),
            )
            intimacy = FactoredEstimate.compress(
                gradient, rank=rank, residual_nnz=residual_nnz
            )
        self._svt_engine = self._build_svt_engine()
        prox_terms = [
            TraceNormProx(
                self.tau, max_rank=self.svd_rank, engine=self._svt_engine
            ),
            L1Prox(self.gamma),
            BoxProjection(0.0, None),
        ]
        inner = FactoredForwardBackwardSolver(
            step_size=self.step_size,
            criterion=ConvergenceCriterion(
                tolerance=self.tolerance, max_iterations=self.inner_iterations
            ),
        )
        solver = FactoredSolver(
            adjacency,
            prox_terms,
            intimacy=intimacy,
            inner_solver=inner,
            outer_criterion=ConvergenceCriterion(
                tolerance=self.tolerance, max_iterations=self.outer_iterations
            ),
        )
        with tracer.span("cccp"):
            self._result = solver.solve(tracer=tracer)
        self._factored_estimate = self._result.estimate
        self._score_matrix = None

    @property
    def score_matrix(self) -> np.ndarray:
        """The full n×n score matrix.

        On the factored path this **materializes** the dense matrix
        (``max(S, 0)`` with a zero diagonal, unnormalized) — the parity
        oracle for small n; serving-scale consumers should read rows via
        :attr:`factored_estimate` instead.
        """
        if self.factored:
            if self._factored_estimate is None:
                raise NotFittedError(
                    f"{self.name} must be fitted before reading scores"
                )
            dense = self._factored_estimate.to_dense()
            np.maximum(dense, 0.0, out=dense)
            np.fill_diagonal(dense, 0.0)
            return dense
        return MatrixPredictor.score_matrix.fget(self)

    @property
    def n_users(self) -> int:
        """Users covered by the fit — O(1) on the factored path."""
        if self.factored and self._factored_estimate is not None:
            return self._factored_estimate.n_users
        return MatrixPredictor.n_users.fget(self)

    def _score_pairs(self, pairs) -> np.ndarray:
        if not self.factored:
            return super()._score_pairs(pairs)
        rows = np.array([p[0] for p in pairs], dtype=int)
        cols = np.array([p[1] for p in pairs], dtype=int)
        scores = np.maximum(
            self._factored_estimate.entries(rows, cols), 0.0
        )
        scores[rows == cols] = 0.0
        return scores

    def _intimacy_gradient(self, task: TransferTask) -> Optional[np.ndarray]:
        if not self.use_attributes:
            return None
        tracer = self._tracer
        with tracer.span("extract:target"):
            target_tensor = self.extractor.extract(
                task.target, task.training_graph
            )
        transfer_active = (
            self.use_sources
            and task.n_sources > 0
            and any(len(anchor) > 0 for anchor in task.anchors)
        )
        with tracer.span("calibrate:target"):
            if transfer_active and self.learn_alphas:
                # The joint readout below supersedes the target-only
                # calibration, so its n² evaluation is skipped; its negative
                # draw is kept so a shared Generator in task.random_state
                # sees the same stream.
                if task.training_graph.n_links:
                    _calibration_pairs(task.training_graph, task.random_state)
                target_intimacy = None
            else:
                target_intimacy = self._weighted_intimacy(
                    target_tensor, task.training_graph, task.random_state
                )
        if not transfer_active:
            # Unaligned (anchor ratio 0) or target-only variant: weighted
            # target features, no projection — SLAMPRED degenerates to
            # SLAMPRED-T exactly as in Table II.
            return self.alpha_target * target_intimacy
        with tracer.span("extract:sources"):
            source_tensors, extract_seconds = self.extractor.extract_many(
                task.sources, max_workers=self.n_jobs
            )
        tracer.metric("intimacy.n_sources", float(task.n_sources))
        for seconds in extract_seconds:
            tracer.metric("intimacy.source_seconds", seconds)
        graphs = [task.training_graph] + [
            _full_graph(source) for source in task.sources
        ]
        self._adapter = DomainAdapter(
            latent_dimension=self.latent_dimension,
            mu=self.mu,
            instances_per_network=self.instances_per_network,
            random_state=task.random_state,
        )
        with tracer.span("adaptation_fit"):
            self._adapter.fit(
                [target_tensor] + source_tensors, graphs, task.anchors
            )
        n_target = target_tensor.n_users
        alphas = self._source_alphas(task.n_sources)
        coverage = [
            anchored_target_mask(anchors, n_target, tensor.n_users)
            for tensor, anchors in zip(source_tensors, task.anchors)
        ]
        if not self.learn_alphas:
            # Fixed-α combination: the target intimacy plus each source's
            # centered affinity, exactly the paper's weighted-sum form.
            gradient = self.alpha_target * target_intimacy
            for k, (alpha, tensor, anchors, mask) in enumerate(
                zip(alphas, source_tensors, task.anchors, coverage), start=1
            ):
                affinity = align_source_to_target(
                    FeatureTensor(self._adapter.affinity_matrix(tensor, k)[None]),
                    anchors,
                    n_target,
                ).values[0]
                covered = np.outer(mask, mask)
                np.fill_diagonal(covered, 0.0)
                gradient += alpha * (affinity - 0.5 * covered)
            return gradient
        # Per-pair blocks: the target's raw intimacy features and latent
        # vectors, plus each source's latent vectors re-indexed through the
        # anchors (zeros where a pair is unanchored) and per-source
        # coverage indicators.  The raw block keeps the full target signal;
        # the latent blocks carry the cross-network information in the
        # shared space.
        latent_blocks = [
            target_tensor.values,
            self._adapter.transform(target_tensor, 0).values,
        ]
        block_alphas = [self.alpha_target, self.alpha_target]

        def _transfer(k):
            # The raw source tensor is spent once projected: drop it before
            # its latent image is aligned, so the two are never held with
            # the aligned copy.
            tensor, source_tensors[k - 1] = source_tensors[k - 1], None
            latent = self._adapter.transform(tensor, k)
            del tensor
            return align_source_to_target(
                latent, task.anchors[k - 1], n_target
            ).values

        # Per-source transfer touches only that source's matrices and the
        # frozen adapter, so the K sources fan out over threads; order is
        # preserved, keeping the block layout (and numerics) identical to
        # the sequential loop.
        transfers, transfer_seconds = parallel_map(
            _transfer, range(1, task.n_sources + 1), max_workers=self.n_jobs
        )
        for seconds in transfer_seconds:
            tracer.metric("intimacy.transfer_seconds", seconds)
        latent_blocks.extend(transfers)
        block_alphas.extend(alphas)
        # Coverage carries the source's α too: a zero-weighted source
        # should inform the readout through neither its features nor its
        # coverage pattern.
        coverage_blocks = list(zip(alphas, coverage))
        return self._joint_latent_intimacy(
            latent_blocks,
            block_alphas,
            coverage_blocks,
            task.training_graph,
            task.random_state,
        )

    def _joint_latent_intimacy(
        self, latent_blocks, block_alphas, coverage_blocks, graph, random_state
    ) -> np.ndarray:
        """Calibrated intimacy over the joint adapted feature space.

        Each pair is described by the concatenation of every network's
        latent vector (source blocks anchor-mapped, zero when unanchored)
        plus per-source coverage flags; ``coverage_blocks`` holds one
        ``(α, mask)`` per source, see :func:`_joint_logits`.  Latent
        dimensions are scaled to unit variance and then multiplied by their
        network's α — with the non-standardized logistic readout and its L2
        penalty, α acts as a prior importance, so α = 0 removes a network
        exactly while the Figure 4/5 sweeps remain meaningful.  Readout
        logits are quantile-transformed into [0, 1].
        """
        from scipy.stats import rankdata

        n = latent_blocks[0].shape[1]
        if not graph.n_links:
            # Degenerate linkless graph: the calibration has nothing to fit
            # on, so the gradient is identically zero.  Returned as an
            # empty CSR matrix — allocating a dense n×n of zeros here cost
            # O(n²) memory for a matrix both solver paths treat as "no
            # transfer" (the CCCP solver drops it, the factored objective
            # keeps it sparse).
            from scipy import sparse

            return sparse.csr_matrix((n, n))
        rows, cols, labels = _calibration_pairs(graph, random_state)
        logits = _joint_logits(
            latent_blocks, block_alphas, coverage_blocks, rows, cols, labels
        )
        gradient = rankdata(logits.ravel()).reshape(n, n)
        del logits
        gradient -= 1.0
        gradient /= max(1, gradient.size - 1)
        np.fill_diagonal(gradient, 0.0)
        return gradient

    def _source_alphas(self, n_sources: int) -> List[float]:
        if self._broadcast_alpha:
            return [self.alpha_sources[0]] * n_sources
        if len(self.alpha_sources) != n_sources:
            raise ConfigurationError(
                f"{len(self.alpha_sources)} source alphas for "
                f"{n_sources} sources"
            )
        return list(self.alpha_sources)

    def _weighted_intimacy(
        self, tensor: FeatureTensor, graph, random_state
    ) -> np.ndarray:
        """Calibrated per-pair intimacy matrix in [0, 1].

        The paper's intimacy term consumes a *curated* feature set from
        [28], summed uniformly.  This reproduction extracts a broad feature
        bank instead, so the slices are combined with weights learned from
        the training structure: a logistic model fitted on training links
        vs an equal sample of non-links, evaluated on every pair.  The
        uniform sum is the special case of equal weights; the learned
        combination plays the role of the original curated scores.
        """
        from repro.models.classifiers import LogisticRegression

        n = tensor.n_users
        if not graph.n_links:
            return np.abs(tensor.normalized().values).mean(axis=0)
        rows, cols, labels = _calibration_pairs(graph, random_state)
        model = LogisticRegression(l2=1.0)
        model.fit(tensor.pair_rows(rows, cols), labels)
        # Quantile-transformed logits: monotone in the propensity, uniformly
        # spread over [0, 1].  Min-max or sigmoid scaling would let outliers
        # (or saturation plateaus) compress the bulk of the pairs into a
        # sliver, and the trace-norm coupling would then drown the ranking.
        from scipy.stats import rankdata

        logits = _slice_logits(model, tensor.values)
        intimacy = rankdata(logits.ravel()).reshape(n, n)
        intimacy = (intimacy - 1.0) / max(1, intimacy.size - 1)
        np.fill_diagonal(intimacy, 0.0)
        return intimacy


class SlamPredT(SlamPred):
    """SLAMPRED-T: target network only (structure + attribute intimacy)."""

    def __init__(self, **kwargs):
        kwargs.setdefault("display_name", "SLAMPRED-T")
        super().__init__(use_attributes=True, use_sources=False, **kwargs)


class SlamPredH(SlamPred):
    """SLAMPRED-H: homogeneous — target social structure only."""

    def __init__(self, **kwargs):
        kwargs.setdefault("display_name", "SLAMPRED-H")
        super().__init__(use_attributes=False, use_sources=False, **kwargs)


_NULL_TRACER = NullTracer()


def _calibration_pairs(graph, random_state):
    """``(rows, cols, labels)``: every link, then as many sampled non-links.

    The training set of the intimacy calibrations; links come first in
    sorted pair order, labelled 1, and the uniform negatives follow.
    """
    from repro.evaluation.splits import sample_negative_arrays

    link_rows, link_cols = graph.link_pairs()
    negative_rows, negative_cols = sample_negative_arrays(
        graph,
        min(link_rows.size, graph.n_non_links),
        _ensure_rng(random_state),
    )
    rows = np.concatenate([link_rows, negative_rows])
    cols = np.concatenate([link_cols, negative_cols])
    labels = np.concatenate(
        [np.ones(link_rows.size), np.zeros(negative_rows.size)]
    )
    return rows, cols, labels


def _joint_logits(
    latent_blocks, block_alphas, coverage_blocks, rows, cols, labels
) -> np.ndarray:
    """Symmetrized logits of the joint readout on every pair (``n×n``).

    The readout is a logistic model over ``D`` per-pair features: every
    slice ``x`` of ``latent_blocks[b]`` scaled to ``α_b · x / std(x)``,
    then one coverage feature ``α · mask_i · mask_j`` (``i ≠ j``) per
    ``(α, mask)`` of ``coverage_blocks``.  It is fitted on the calibration
    pairs ``(rows, cols)`` only, and because it is linear its logits are
    accumulated slice by slice into one ``n×n`` buffer: no scaled copy of a
    block and no ``(D, n, n)`` feature cube is formed.  Pairs with equal
    feature vectors get bitwise equal logits.
    """
    from repro.models.classifiers import LogisticRegression

    n = latent_blocks[0].shape[1]
    scales = []  # α / std per latent slice, in feature order
    columns = []  # the calibration features, one row per feature
    for alpha, block in zip(block_alphas, latent_blocks):
        for matrix in block:
            std = matrix.std()
            std = std if std > 0 else 1.0
            scales.append(alpha / std)
            columns.append(alpha * matrix[rows, cols] / std)
    for alpha, mask in coverage_blocks:
        columns.append(alpha * (mask[rows] * mask[cols] * (rows != cols)))
    model = LogisticRegression(l2=1.0, standardize=False)
    model.fit(np.array(columns).T, labels)
    logits = np.full((n, n), model.intercept)  # dense-ok: the n×n readout
    scratch = np.empty((n, n))  # dense-ok: one slice of the n×n readout
    slices = (matrix for block in latent_blocks for matrix in block)
    for matrix, weight, scale in zip(slices, model.weights, scales):
        np.multiply(matrix, weight * scale, out=scratch)
        logits += scratch
    coverage_weights = model.weights[len(scales):]
    for (alpha, mask), weight in zip(coverage_blocks, coverage_weights):
        np.multiply.outer(weight * alpha * mask, mask, out=scratch)
        np.fill_diagonal(scratch, 0.0)
        logits += scratch
    np.add(logits, logits.T, out=scratch)
    scratch /= 2.0
    return scratch


def _slice_logits(model, values) -> np.ndarray:
    """Symmetrized logits of a fitted ``model`` on every pair (``n×n``).

    ``values`` is a ``(d, n, n)`` feature cube.  The model's
    standardization is folded into its weights
    (:meth:`~repro.models.classifiers.LogisticRegression.raw_coefficients`)
    and the logits are accumulated slice by slice into one ``n×n``
    buffer, so no standardized ``(n², d)`` copy of the cube is formed.
    """
    n = values.shape[1]
    weights, intercept = model.raw_coefficients()
    logits = np.full((n, n), intercept)  # dense-ok: the n×n readout
    scratch = np.empty((n, n))  # dense-ok: one slice of the n×n readout
    for matrix, weight in zip(values, weights):
        np.multiply(matrix, weight, out=scratch)
        logits += scratch
    np.add(logits, logits.T, out=scratch)
    scratch /= 2.0
    return scratch


def _full_graph(network) -> "SocialGraph":
    from repro.networks.social import SocialGraph

    return SocialGraph.from_network(network)


def _ensure_rng(random_state):
    from repro.utils.rng import ensure_rng

    return ensure_rng(random_state)
