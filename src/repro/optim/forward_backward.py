"""Forward-backward splitting solvers.

Two solvers for ``min_S f(S) + Σ_i g_i(S)`` with smooth ``f`` and prox-able
``g_i``:

* :class:`ForwardBackwardSolver` — the scheme of the paper's Algorithm 1:
  one gradient step on ``f`` followed by sequentially applying each ``g_i``'s
  prox.  Exact when the proxes commute; with a small step (the paper uses
  θ = 0.001) the composition error is negligible, and this is what the paper
  runs.
* :class:`GeneralizedForwardBackward` — the method of Raguet, Fadili & Peyré
  (2013) that handles q ≥ 2 non-smooth terms *exactly* by maintaining one
  auxiliary variable per term.  Used by the ablation benchmark to check the
  paper's sequential approximation costs nothing on this problem.

Both accept a list of smooth terms (objects with ``value``/``gradient``) and
a list of prox terms (objects with ``value``/``apply``).

Both also accept an optional ``tracer``
(:class:`~repro.observability.tracer.Tracer`).  Under a live tracer every
iteration is wrapped in timed spans (gradient step, each prox apply), the
objective is evaluated *per term* and the resulting breakdown, step size,
retained SVD rank and phase wall-clock are written onto the
:class:`~repro.observability.records.IterationRecord` shared with
``history``.  With ``tracer=None`` (or a null tracer) none of that runs and
the iterate sequence is bit-identical to the uninstrumented solver.
"""

from __future__ import annotations

import inspect
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import OptimizationError
from repro.observability.records import IterationRecord
from repro.observability.tracer import Tracer, is_tracing
from repro.optim.convergence import ConvergenceCriterion, IterationHistory
from repro.perf.workspace import FactoredWorkspace, Workspace
from repro.utils.validation import check_positive


_DIVERGENCE_LIMIT = 1e12


def _diverged(matrix: np.ndarray) -> bool:
    """Whether an iterate left the numerically trustworthy region."""
    return (
        not np.all(np.isfinite(matrix))
        or np.abs(matrix).max() > _DIVERGENCE_LIMIT
    )


def _diverged_factored(estimate) -> bool:
    """Divergence check on factors: non-finite or huge weights/residual."""
    s = estimate.s
    if s.size and (
        not np.all(np.isfinite(s)) or float(s.max()) > _DIVERGENCE_LIMIT
    ):
        return True
    data = estimate.residual.data
    return data.size > 0 and (
        not np.all(np.isfinite(data))
        or float(np.abs(data).max()) > _DIVERGENCE_LIMIT
    )


def _check_finite(matrix: np.ndarray, step_size: float) -> None:
    """Fail fast when the iteration diverges (step size too large)."""
    if _diverged(matrix):
        raise OptimizationError(
            f"iteration diverged (entries exceed {_DIVERGENCE_LIMIT:.0e}); "
            f"reduce step_size (currently {step_size}) below 2/L of the "
            "smooth term"
        )


def _total_objective(matrix, smooth_terms, prox_terms) -> float:
    value = sum(term.value(matrix) for term in smooth_terms)
    value += sum(term.value(matrix) for term in prox_terms)
    return float(value)


_OUT_SUPPORT: Dict[type, bool] = {}


def _accepts_out(term) -> bool:
    """Whether a smooth term's ``gradient`` takes the ``out`` keyword."""
    kind = type(term)
    cached = _OUT_SUPPORT.get(kind)
    if cached is None:
        try:
            cached = "out" in inspect.signature(term.gradient).parameters
        except (TypeError, ValueError):
            cached = False
        _OUT_SUPPORT[kind] = cached
    return cached


def _total_gradient(
    matrix,
    smooth_terms,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Summed smooth-term gradient, accumulated into ``out`` when given.

    Without ``out`` this is the legacy allocating path (used by the traced
    solver branch, whose numerics stay pinned by the golden regression).
    With ``out`` the first term writes straight into the accumulator and
    later terms route through ``scratch``, so no full-size temporary is
    allocated.
    """
    if out is None:
        gradient = np.zeros_like(matrix)
        for term in smooth_terms:
            gradient += term.gradient(matrix)
        return gradient
    terms = list(smooth_terms)
    if not terms:
        out.fill(0.0)
        return out
    if _accepts_out(terms[0]):
        terms[0].gradient(matrix, out=out)
    else:
        np.copyto(out, terms[0].gradient(matrix))
    for term in terms[1:]:
        if scratch is not None and _accepts_out(term):
            out += term.gradient(matrix, out=scratch)
        else:
            out += term.gradient(matrix)
    return out


def _term_labels(terms: Sequence) -> List[str]:
    """Display names per term, index-suffixed when a class repeats."""
    names = [type(term).__name__ for term in terms]
    labels = []
    for index, name in enumerate(names):
        if names.count(name) > 1:
            labels.append(f"{name}[{index}]")
        else:
            labels.append(name)
    return labels


def _accepts_tracer(prox) -> bool:
    """Whether a prox term's ``apply`` takes the ``tracer`` keyword."""
    try:
        return "tracer" in inspect.signature(prox.apply).parameters
    except (TypeError, ValueError):
        return False


def _objective_breakdown(
    matrix, smooth_terms, prox_terms, smooth_labels, prox_labels
) -> Dict[str, float]:
    """Objective value per term, keyed by term label."""
    breakdown = {}
    for label, term in zip(smooth_labels, smooth_terms):
        breakdown[label] = float(term.value(matrix))
    for label, term in zip(prox_labels, prox_terms):
        breakdown[label] = float(term.value(matrix))
    return breakdown


def _enrich_record(
    record: IterationRecord,
    tracer: Tracer,
    step_size: float,
    breakdown: Dict[str, float],
    phase_seconds: Dict[str, float],
    svt_samples_before: int,
) -> None:
    """Copy one traced iteration's extras onto its shared record."""
    record.step_size = step_size
    record.objective_terms = breakdown
    record.phase_seconds = phase_seconds
    if len(tracer.metrics.get("svt.retained_rank", ())) > svt_samples_before:
        record.svd_rank = int(tracer.last_metric("svt.retained_rank"))
        record.svd_tail = tracer.last_metric("svt.tail_singular_value")
        record.svd_threshold = tracer.last_metric("svt.threshold")
    tracer.record_iteration(record)


class ForwardBackwardSolver:
    """Gradient step + sequential proximal steps (paper's Algorithm 1 inner loop).

    Parameters
    ----------
    step_size:
        Learning rate θ; the paper uses 0.001.
    criterion:
        Stopping rule for the proximal iteration.
    record_objective:
        Whether to evaluate the full objective each iteration (costs an SVD
        per trace-norm term; disable inside tight loops).  A live tracer
        implies it — and additionally breaks the objective out per term.
    max_step_halvings:
        Recovery budget when an iterate (or its objective) goes non-finite:
        the step size is halved and the iteration re-taken from the last
        good iterate, at most this many times, before the solver gives up
        with :class:`~repro.exceptions.OptimizationError`.  Zero restores
        the old fail-fast behaviour.
    """

    def __init__(
        self,
        step_size: float = 1e-3,
        criterion: ConvergenceCriterion = None,
        record_objective: bool = False,
        max_step_halvings: int = 3,
    ):
        self.step_size = check_positive(step_size, "step_size")
        self.criterion = criterion or ConvergenceCriterion()
        self.record_objective = record_objective
        if max_step_halvings < 0:
            raise OptimizationError(
                f"max_step_halvings must be >= 0, got {max_step_halvings}"
            )
        self.max_step_halvings = int(max_step_halvings)

    def solve(
        self,
        initial: np.ndarray,
        smooth_terms: Sequence,
        prox_terms: Sequence,
        history: Optional[IterationHistory] = None,
        tracer: Optional[Tracer] = None,
    ) -> np.ndarray:
        """Run the iteration from ``initial`` until convergence.

        Returns the final iterate; per-iteration diagnostics are appended to
        ``history`` when given, and to ``tracer`` when it is live.

        The untraced branch runs on a preallocated :class:`Workspace`
        (cached on the solver and reused across CCCP rounds): gradient
        accumulation, the gradient step and the entry-wise proxes all
        write into workspace buffers, so a steady-state iteration
        allocates nothing beyond what the SVT itself produces.  The
        iterate sequence is bit-identical to the legacy allocating loop.
        """
        if not smooth_terms and not prox_terms:
            raise OptimizationError("nothing to optimize: no terms given")
        current = np.asarray(initial, dtype=float).copy()
        if is_tracing(tracer):
            return self._solve_traced(
                current, smooth_terms, prox_terms, history, tracer
            )
        return self._solve_fast(current, smooth_terms, prox_terms, history)

    def _solve_fast(
        self,
        current: np.ndarray,
        smooth_terms: Sequence,
        prox_terms: Sequence,
        history: Optional[IterationHistory],
    ) -> np.ndarray:
        """Workspace-backed loop (no tracer): the allocation-free path."""
        ws = Workspace.ensure(getattr(self, "_workspace", None), current)
        self._workspace = ws
        inplace_proxes = [
            getattr(prox, "apply_inplace", None) for prox in prox_terms
        ]
        step = self.step_size
        halvings = 0
        for _ in range(self.criterion.max_iterations):
            previous = current
            gradient = _total_gradient(
                previous, smooth_terms, out=ws.gradient, scratch=ws.scratch
            )
            # previous + (-step)·g is bitwise previous − step·g, and lets
            # the scale land in the gradient buffer we own.
            np.multiply(gradient, -step, out=gradient)
            buffer = ws.step_buffer(avoid=previous)
            np.add(previous, gradient, out=buffer)
            current = buffer
            for prox, inplace in zip(prox_terms, inplace_proxes):
                if inplace is not None:
                    current = inplace(current, step, scratch=ws.scratch)
                else:
                    current = prox.apply(current, step)
            if _diverged(current):
                if halvings < self.max_step_halvings:
                    halvings += 1
                    step *= 0.5
                    current = previous
                    continue
                _check_finite(current, step)
            update_norm = ws.l1_update_norm(current, previous)
            if history is not None:
                objective = (
                    _total_objective(current, smooth_terms, prox_terms)
                    if self.record_objective
                    else None
                )
                history.record_norms(
                    ws.l1_norm(current), update_norm, objective
                )
            if self.criterion.satisfied_value(update_norm):
                break
        if ws.owns(current):
            current = current.copy()
        return current

    def _solve_traced(
        self,
        current: np.ndarray,
        smooth_terms: Sequence,
        prox_terms: Sequence,
        history: Optional[IterationHistory],
        tracer: Tracer,
    ) -> np.ndarray:
        """Instrumented loop — numerics pinned by the golden regression."""
        smooth_labels = _term_labels(smooth_terms)
        prox_labels = _term_labels(prox_terms)
        prox_takes_tracer = [_accepts_tracer(p) for p in prox_terms]
        step = self.step_size
        halvings = 0

        def _recover() -> bool:
            """Halve the step after a non-finite iterate; False = give up."""
            nonlocal step, halvings
            if halvings >= self.max_step_halvings:
                return False
            halvings += 1
            step *= 0.5
            tracer.count("fb.step_halvings")
            return True

        for _ in range(self.criterion.max_iterations):
            previous = current
            phase_seconds: Dict[str, float] = {}
            svt_before = len(tracer.metrics.get("svt.retained_rank", ()))
            with tracer.span("gradient") as span:
                gradient = _total_gradient(previous, smooth_terms)
            phase_seconds["gradient"] = span.duration
            current = previous - step * gradient
            for i, prox in enumerate(prox_terms):
                label = f"prox:{prox_labels[i]}"
                with tracer.span(label) as span:
                    if prox_takes_tracer[i]:
                        current = prox.apply(
                            current, step, tracer=tracer
                        )
                    else:
                        current = prox.apply(current, step)
                phase_seconds[label] = span.duration
            if _diverged(current):
                if _recover():
                    current = previous
                    continue
                _check_finite(current, step)
            tracer.count("fb.iterations")
            breakdown = _objective_breakdown(
                current, smooth_terms, prox_terms,
                smooth_labels, prox_labels,
            )
            objective = float(sum(breakdown.values()))
            if not np.isfinite(objective):
                # The iterate is representable but the objective
                # overflowed — same remedy as a diverged iterate.
                if _recover():
                    current = previous
                    continue
                raise OptimizationError(
                    f"objective became non-finite ({objective}); "
                    f"reduce step_size (currently {step}) below 2/L "
                    "of the smooth term"
                )
            record = (history or IterationHistory()).record(
                current, previous, objective
            )
            _enrich_record(
                record, tracer, step, breakdown,
                phase_seconds, svt_before,
            )
            if self.criterion.satisfied(current, previous):
                break
        return current


class FactoredForwardBackwardSolver:
    """Forward-backward splitting on a factored iterate ``S = L + R``.

    Runs the same iteration as :class:`ForwardBackwardSolver` — gradient
    step, singular-value thresholding, entry-wise proxes — but the iterate
    is a :class:`~repro.factored.estimate.FactoredEstimate` and no n×n
    array is ever formed (DESIGN.md §13):

    * the forward step is :meth:`FactoredSmoothObjective.gradient_step`
      (a factor concatenation plus one CSR combination, O(nnz + nk)),
    * the trace-norm prox is the exact SVT of the *full* iterate, applied
      through matvecs (``TraceNormProx.apply_factored``), producing a pure
      low-rank ``L'``,
    * the entry-wise proxes (ℓ1 shrinkage, box projection) act on the
      fixed sparse support Ω — the union of ``2A + G_sparse``'s pattern
      and the initial residual's — via their ``apply_values`` hooks; the
      new residual stores the correction ``prox(v) − v`` on Ω.

    Off-support entries therefore see the SVT but skip the entry-wise
    proxes, whose effect there is a uniform monotone shrink-and-clip —
    ranking-based metrics (AUC, top-k) over off-support pairs are
    unaffected up to the tolerance the parity suite pins down.

    Convergence bookkeeping uses Frobenius-norm surrogates
    (``‖S_t − S_{t−1}‖_F``), a lower bound on the entrywise ℓ1 norm the
    dense solver tracks; iteration budgets are shared with the dense
    configuration.  Their low-rank terms come from k×k Gram matrices and
    their sparse terms from the low-rank values and residual data on Ω,
    kept from the step that computed them (DESIGN.md §13): one O(nnz·k)
    gather per iteration in all.
    """

    def __init__(
        self,
        step_size: float = 1e-3,
        criterion: ConvergenceCriterion = None,
        max_step_halvings: int = 3,
    ):
        self.step_size = check_positive(step_size, "step_size")
        self.criterion = criterion or ConvergenceCriterion()
        if max_step_halvings < 0:
            raise OptimizationError(
                f"max_step_halvings must be >= 0, got {max_step_halvings}"
            )
        self.max_step_halvings = int(max_step_halvings)

    @staticmethod
    def _split_proxes(prox_terms: Sequence):
        """Partition prox terms into the one SVT and the entry-wise rest."""
        trace_proxes = [
            p for p in prox_terms if hasattr(p, "apply_factored")
        ]
        entry_proxes = [
            p for p in prox_terms if not hasattr(p, "apply_factored")
        ]
        if len(trace_proxes) != 1:
            raise OptimizationError(
                "factored solve needs exactly one trace-norm prox "
                f"(apply_factored), got {len(trace_proxes)}"
            )
        missing = [
            type(p).__name__
            for p in entry_proxes
            if not hasattr(p, "apply_values")
        ]
        if missing:
            raise OptimizationError(
                "entry-wise prox terms must expose apply_values for the "
                f"factored path; missing on {missing}"
            )
        return trace_proxes[0], entry_proxes

    def solve(
        self,
        initial,
        objective,
        prox_terms: Sequence,
        history: Optional[IterationHistory] = None,
        tracer: Optional[Tracer] = None,
    ):
        """Run the factored iteration from ``initial`` until convergence.

        Parameters
        ----------
        initial:
            Starting :class:`~repro.factored.estimate.FactoredEstimate`.
        objective:
            A :class:`~repro.optim.losses.FactoredSmoothObjective` (or
            anything with ``gradient_step`` and ``constant_sparse``).
        prox_terms:
            Exactly one term with ``apply_factored`` (the SVT) plus any
            number with ``apply_values`` (entry-wise), in apply order.
        """
        trace_prox, entry_proxes = self._split_proxes(prox_terms)
        constant = objective.constant_sparse
        pattern = abs(constant)
        if initial.residual.nnz:
            pattern = pattern + abs(initial.residual)
        ws = FactoredWorkspace.ensure(
            getattr(self, "_workspace", None), pattern
        )
        self._workspace = ws
        tracing = is_tracing(tracer)
        current = initial
        # The previous iterate on Ω: its low-rank values (copied out of the
        # reused ``ws.values``), its residual data and its ‖L‖_F².
        previous_values = ws.lowrank_entries(initial).copy()
        previous_correction = ws.residual_values(initial.residual)
        previous_lowrank_sq = initial.lowrank_frobenius_sq()
        step = self.step_size
        halvings = 0
        for _ in range(self.criterion.max_iterations):
            previous = current
            forwarded = objective.gradient_step(previous, step)
            if tracing:
                with tracer.span("prox:TraceNormProx"):
                    lowrank = trace_prox.apply_factored(
                        forwarded, step, tracer=tracer
                    )
            else:
                lowrank = trace_prox.apply_factored(forwarded, step)
            values = ws.lowrank_entries(lowrank)
            proxed = values
            for prox in entry_proxes:
                proxed = prox.apply_values(proxed, step)
            correction = np.subtract(proxed, values)
            current = lowrank.with_residual(ws.residual_from(correction))
            if _diverged_factored(current):
                if halvings < self.max_step_halvings:
                    halvings += 1
                    step *= 0.5
                    if tracing:
                        tracer.count("fb.step_halvings")
                    current = previous
                    continue
                raise OptimizationError(
                    "factored iteration diverged (factor weights exceed "
                    f"{_DIVERGENCE_LIMIT:.0e}); reduce step_size "
                    f"(currently {step}) below 2/L of the smooth term"
                )
            # ‖S_t − S_{t−1}‖² = ‖ΔL‖² + 2⟨ΔL, ΔR⟩ + ‖ΔR‖², where ΔR lives on
            # Ω and ⟨ΔL, ΔR⟩ reads ΔL's values there; likewise for ‖S_t‖².
            lowrank_sq = lowrank.lowrank_frobenius_sq()
            delta_values = values - previous_values
            delta_correction = correction - previous_correction
            update_sq = (
                lowrank_sq
                + previous_lowrank_sq
                - 2.0 * lowrank.lowrank_inner(previous)
                + float(delta_correction @ delta_correction)
                + 2.0 * float(delta_values @ delta_correction)
            )
            update_norm = float(np.sqrt(max(update_sq, 0.0)))
            if tracing:
                tracer.count("fb.iterations")
            if history is not None:
                norm_sq = (
                    lowrank_sq
                    + 2.0 * float(values @ correction)
                    + float(correction @ correction)
                )
                history.record_norms(
                    float(np.sqrt(max(norm_sq, 0.0))), update_norm, None
                )
            np.copyto(previous_values, values)
            previous_correction = correction
            previous_lowrank_sq = lowrank_sq
            if self.criterion.satisfied_value(update_norm):
                break
        return current


class GeneralizedForwardBackward:
    """Raguet et al. (2013) generalized forward-backward splitting.

    Maintains auxiliaries ``z_i`` (one per non-smooth term) and iterates::

        z_i ← z_i + prox_{(θ/ω_i) g_i}(2x − z_i − θ∇f(x)) − x
        x   ← Σ_i ω_i z_i

    with uniform weights ``ω_i = 1/q``.  Converges for ``θ < 2/L`` where L is
    the Lipschitz constant of ``∇f``.

    Like :class:`ForwardBackwardSolver`, a non-finite iterate triggers a
    step-halving retry from the last good iterate (and auxiliaries), at
    most ``max_step_halvings`` times, before the solver raises
    :class:`~repro.exceptions.OptimizationError`.
    """

    def __init__(
        self,
        step_size: float = 1e-3,
        criterion: ConvergenceCriterion = None,
        record_objective: bool = False,
        max_step_halvings: int = 3,
    ):
        self.step_size = check_positive(step_size, "step_size")
        self.criterion = criterion or ConvergenceCriterion()
        self.record_objective = record_objective
        if max_step_halvings < 0:
            raise OptimizationError(
                f"max_step_halvings must be >= 0, got {max_step_halvings}"
            )
        self.max_step_halvings = int(max_step_halvings)

    def solve(
        self,
        initial: np.ndarray,
        smooth_terms: Sequence,
        prox_terms: Sequence,
        history: Optional[IterationHistory] = None,
        tracer: Optional[Tracer] = None,
    ) -> np.ndarray:
        """Run the iteration from ``initial`` until convergence."""
        if not prox_terms:
            raise OptimizationError(
                "GeneralizedForwardBackward needs at least one prox term"
            )
        tracing = is_tracing(tracer)
        if tracing:
            smooth_labels = _term_labels(smooth_terms)
            prox_labels = _term_labels(prox_terms)
            prox_takes_tracer = [_accepts_tracer(p) for p in prox_terms]
        q = len(prox_terms)
        weight = 1.0 / q
        current = np.asarray(initial, dtype=float).copy()
        auxiliaries: List[np.ndarray] = [current.copy() for _ in range(q)]
        step = self.step_size
        halvings = 0
        for _ in range(self.criterion.max_iterations):
            previous = current
            # Auxiliary updates rebind (never mutate), so a shallow list
            # copy is enough to restore them after a step-halving retry.
            old_auxiliaries = list(auxiliaries)
            phase_seconds: Dict[str, float] = {}
            if tracing:
                svt_before = len(tracer.metrics.get("svt.retained_rank", ()))
                with tracer.span("gradient") as span:
                    gradient = _total_gradient(previous, smooth_terms)
                phase_seconds["gradient"] = span.duration
            else:
                gradient = _total_gradient(previous, smooth_terms)
            for i, prox in enumerate(prox_terms):
                argument = 2.0 * previous - auxiliaries[i] - step * gradient
                if tracing:
                    label = f"prox:{prox_labels[i]}"
                    with tracer.span(label) as span:
                        if prox_takes_tracer[i]:
                            stepped = prox.apply(
                                argument, step / weight,
                                tracer=tracer,
                            )
                        else:
                            stepped = prox.apply(
                                argument, step / weight
                            )
                    phase_seconds[label] = span.duration
                else:
                    stepped = prox.apply(argument, step / weight)
                auxiliaries[i] = auxiliaries[i] + stepped - previous
            current = weight * np.sum(auxiliaries, axis=0)
            if _diverged(current):
                if halvings < self.max_step_halvings:
                    halvings += 1
                    step *= 0.5
                    if tracing:
                        tracer.count("gfb.step_halvings")
                    auxiliaries = old_auxiliaries
                    current = previous
                    continue
                _check_finite(current, step)
            if tracing:
                tracer.count("gfb.iterations")
                breakdown = _objective_breakdown(
                    current, smooth_terms, prox_terms,
                    smooth_labels, prox_labels,
                )
                objective = float(sum(breakdown.values()))
                record = (history or IterationHistory()).record(
                    current, previous, objective
                )
                _enrich_record(
                    record, tracer, step, breakdown,
                    phase_seconds, svt_before,
                )
            elif history is not None:
                objective = (
                    _total_objective(current, smooth_terms, prox_terms)
                    if self.record_objective
                    else None
                )
                history.record(current, previous, objective)
            if self.criterion.satisfied(current, previous):
                break
        return current
