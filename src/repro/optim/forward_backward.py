"""Forward-backward splitting solvers.

Three solvers for ``min_S f(S) + Σ_i g_i(S)`` with smooth ``f`` and
prox-able ``g_i``:

* :class:`ForwardBackwardSolver` — the scheme of the paper's Algorithm 1:
  one gradient step on ``f`` followed by sequentially applying each ``g_i``'s
  prox.  Exact when the proxes commute; with a small step (the paper uses
  θ = 0.001) the composition error is negligible, and this is what the paper
  runs.
* :class:`FactoredForwardBackwardSolver` — the same iteration on a factored
  iterate ``S = L + R`` (DESIGN.md §13).
* :class:`GeneralizedForwardBackward` — the method of Raguet, Fadili & Peyré
  (2013) that handles q ≥ 2 non-smooth terms *exactly* by maintaining one
  auxiliary variable per term.

The dense solvers accept a list of smooth terms (objects with
``value``/``gradient``) and a list of prox terms (objects with
``value``/``apply``).

Every solver runs one loop whether or not a tracer is attached.  The loop
opens its ``gradient`` and ``prox:<Term>`` spans, counts iterations and
step halvings, and hands the tracer to each prox, all on the
:class:`~repro.observability.tracer.Tracer` it is given (the shared
:data:`~repro.observability.tracer.NULL_TRACER` for ``tracer=None``).  A
tracer observes the iteration and never changes it: the iterate sequence
and the ``history`` norms are bit-identical with tracing on or off.  The
objective is not evaluated here; the CCCP driver evaluates it once per
round (:class:`~repro.optim.cccp.CCCPSolver`).
"""

from __future__ import annotations

import inspect
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import OptimizationError
from repro.observability.tracer import NULL_TRACER, Tracer
from repro.optim.convergence import ConvergenceCriterion, IterationHistory
from repro.perf.workspace import FactoredWorkspace, Workspace
from repro.utils.matrices import l1_norm
from repro.utils.validation import check_positive


_DIVERGENCE_LIMIT = 1e12


def _diverged(matrix: np.ndarray) -> bool:
    """Whether an iterate left the numerically trustworthy region.

    Two reductions and no full-size temporary: a NaN anywhere makes
    ``min``/``max`` NaN, which fails both comparisons.
    """
    return not (
        -_DIVERGENCE_LIMIT <= matrix.min()
        and matrix.max() <= _DIVERGENCE_LIMIT
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
    out: np.ndarray,
    scratch: np.ndarray,
) -> np.ndarray:
    """Summed smooth-term gradient, accumulated into ``out``.

    The first term writes straight into the accumulator and later terms
    route through ``scratch``, so no full-size temporary is allocated.
    """
    terms = list(smooth_terms)
    if not terms:
        out.fill(0.0)
        return out
    if _accepts_out(terms[0]):
        terms[0].gradient(matrix, out=out)
    else:
        np.copyto(out, terms[0].gradient(matrix))
    for term in terms[1:]:
        if _accepts_out(term):
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


def _prox_spans(prox_terms: Sequence) -> List[str]:
    """Span name of each prox apply: ``prox:<Term>``."""
    return [f"prox:{label}" for label in _term_labels(prox_terms)]


class _SplittingSolver:
    """The constructor the three solvers share.

    Parameters
    ----------
    step_size:
        Learning rate θ; the paper uses 0.001.
    criterion:
        Stopping rule for the proximal iteration.
    max_step_halvings:
        Recovery budget when an iterate goes non-finite: the step size is
        halved and the iteration re-taken from the last good iterate, at
        most this many times, before the solver gives up with
        :class:`~repro.exceptions.OptimizationError`.  Zero restores the
        old fail-fast behaviour.
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
        # The solvers that run on buffers cache them here across solves.
        self._workspace = None


class ForwardBackwardSolver(_SplittingSolver):
    """Gradient step + sequential proximal steps (paper's Algorithm 1 inner loop).

    Takes ``step_size``, ``criterion`` and ``max_step_halvings`` (see
    :class:`_SplittingSolver`).
    """

    def solve(
        self,
        initial: np.ndarray,
        smooth_terms: Sequence,
        prox_terms: Sequence,
        history: Optional[IterationHistory] = None,
        tracer: Optional[Tracer] = None,
    ) -> np.ndarray:
        """Run the iteration from ``initial`` until convergence.

        Returns the final iterate; per-iteration norms are appended to
        ``history`` when given.

        The loop runs on a preallocated :class:`Workspace` (cached on the
        solver and reused across CCCP rounds): gradient accumulation, the
        gradient step and the entry-wise proxes all write into workspace
        buffers, so a steady-state iteration allocates nothing beyond what
        the SVT itself produces.  The iterate sequence is bit-identical to
        the seed's allocating loop.
        """
        if not smooth_terms and not prox_terms:
            raise OptimizationError("nothing to optimize: no terms given")
        tracer = NULL_TRACER if tracer is None else tracer
        current = np.asarray(initial, dtype=float).copy()
        ws = Workspace.ensure(self._workspace, current)
        self._workspace = ws
        inplace_proxes = [
            getattr(prox, "apply_inplace", None) for prox in prox_terms
        ]
        spans = _prox_spans(prox_terms)
        step = self.step_size
        halvings = 0
        for _ in range(self.criterion.max_iterations):
            previous = current
            with tracer.span("gradient"):
                gradient = _total_gradient(
                    previous, smooth_terms, ws.gradient, ws.scratch
                )
            # previous + (-step)·g is bitwise previous − step·g, and lets
            # the scale land in the gradient buffer we own.
            np.multiply(gradient, -step, out=gradient)
            buffer = ws.step_buffer(avoid=previous)
            np.add(previous, gradient, out=buffer)
            current = buffer
            for prox, inplace, span in zip(prox_terms, inplace_proxes, spans):
                with tracer.span(span):
                    if inplace is not None:
                        current = inplace(
                            current, step, scratch=ws.scratch, tracer=tracer
                        )
                    else:
                        current = prox.apply(current, step, tracer=tracer)
            if _diverged(current):
                if halvings < self.max_step_halvings:
                    halvings += 1
                    step *= 0.5
                    tracer.count("fb.step_halvings")
                    current = previous
                    continue
                _check_finite(current, step)
            tracer.count("fb.iterations")
            update_norm = ws.l1_update_norm(current, previous)
            norm = (
                ws.l1_norm(current)
                if history is not None or self.criterion.relative
                else None
            )
            if history is not None:
                history.record_norms(norm, update_norm)
            if self.criterion.satisfied_value(update_norm, norm):
                break
        if ws.owns(current):
            current = current.copy()
        return current

    @property
    def workspace(self) -> Optional[Workspace]:
        """The buffers of the last solve (``None`` before the first).

        The CCCP driver computes its per-round norms through the same
        scratch buffer, so a round allocates no full-size temporary.
        """
        return self._workspace


class FactoredForwardBackwardSolver(_SplittingSolver):
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
        tracer = NULL_TRACER if tracer is None else tracer
        trace_span = _prox_spans([trace_prox])[0]
        entry_spans = _prox_spans(entry_proxes)
        constant = objective.constant_sparse
        pattern = abs(constant)
        if initial.residual.nnz:
            pattern = pattern + abs(initial.residual)
        ws = FactoredWorkspace.ensure(self._workspace, pattern)
        self._workspace = ws
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
            with tracer.span("gradient"):
                forwarded = objective.gradient_step(previous, step)
            with tracer.span(trace_span):
                lowrank = trace_prox.apply_factored(
                    forwarded, step, tracer=tracer
                )
            values = ws.lowrank_entries(lowrank)
            proxed = values
            for prox, span in zip(entry_proxes, entry_spans):
                with tracer.span(span):
                    proxed = prox.apply_values(proxed, step, tracer=tracer)
            correction = np.subtract(proxed, values)
            current = lowrank.with_residual(ws.residual_from(correction))
            if _diverged_factored(current):
                if halvings < self.max_step_halvings:
                    halvings += 1
                    step *= 0.5
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
            tracer.count("fb.iterations")
            if history is not None:
                norm_sq = (
                    lowrank_sq
                    + 2.0 * float(values @ correction)
                    + float(correction @ correction)
                )
                history.record_norms(
                    float(np.sqrt(max(norm_sq, 0.0))), update_norm
                )
            np.copyto(previous_values, values)
            previous_correction = correction
            previous_lowrank_sq = lowrank_sq
            if self.criterion.satisfied_value(update_norm):
                break
        return current


class GeneralizedForwardBackward(_SplittingSolver):
    """Raguet et al. (2013) generalized forward-backward splitting.

    Maintains auxiliaries ``z_i`` (one per non-smooth term) and iterates::

        z_i ← z_i + prox_{(θ/ω_i) g_i}(2x − z_i − θ∇f(x)) − x
        x   ← Σ_i ω_i z_i

    with uniform weights ``ω_i = 1/q``.  Converges for ``θ < 2/L`` where L is
    the Lipschitz constant of ``∇f``.  It is the exact-composition reference
    for the sequential scheme of :class:`ForwardBackwardSolver`: the test
    suite checks that both reach the same optimum on the paper's composite
    problem (ℓ1 + box).

    Like :class:`ForwardBackwardSolver`, a non-finite iterate triggers a
    step-halving retry from the last good iterate (and auxiliaries), at
    most ``max_step_halvings`` times, before the solver raises
    :class:`~repro.exceptions.OptimizationError`.
    """

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
        tracer = NULL_TRACER if tracer is None else tracer
        spans = _prox_spans(prox_terms)
        q = len(prox_terms)
        weight = 1.0 / q
        current = np.asarray(initial, dtype=float).copy()
        auxiliaries: List[np.ndarray] = [current.copy() for _ in range(q)]
        gradient = np.empty_like(current)
        scratch = np.empty_like(current)
        step = self.step_size
        halvings = 0
        for _ in range(self.criterion.max_iterations):
            previous = current
            # Auxiliary updates rebind (never mutate), so a shallow list
            # copy is enough to restore them after a step-halving retry.
            old_auxiliaries = list(auxiliaries)
            with tracer.span("gradient"):
                _total_gradient(previous, smooth_terms, gradient, scratch)
            for i, (prox, span) in enumerate(zip(prox_terms, spans)):
                argument = 2.0 * previous - auxiliaries[i] - step * gradient
                with tracer.span(span):
                    stepped = prox.apply(
                        argument, step / weight, tracer=tracer
                    )
                auxiliaries[i] = auxiliaries[i] + stepped - previous
            current = weight * np.sum(auxiliaries, axis=0)
            if _diverged(current):
                if halvings < self.max_step_halvings:
                    halvings += 1
                    step *= 0.5
                    tracer.count("gfb.step_halvings")
                    auxiliaries = old_auxiliaries
                    current = previous
                    continue
                _check_finite(current, step)
            tracer.count("gfb.iterations")
            update_norm = l1_norm(current - previous)
            if history is not None:
                history.record_norms(l1_norm(current), update_norm)
            if self.criterion.satisfied_value(update_norm):
                break
        return current
