"""Figure 3 — convergence analysis of the iterative CCCP.

The paper plots ``‖S^h‖₁`` (left panel) and ``‖S^h − S^{h−1}‖₁`` (right
panel) per iteration, observing convergence within ~300 rounds.  This
reproduction fits the full SLAMPRED model with history recording and emits
both series, down-sampled for terminal display.
"""

from __future__ import annotations

from typing import Dict, List

from repro.evaluation.splits import k_fold_link_splits
from repro.models.base import TransferTask
from repro.models.slampred import SlamPred
from repro.networks.social import SocialGraph
from repro.observability.report import describe_stop
from repro.observability.tracer import Tracer
from repro.synth.generator import generate_aligned_pair
from repro.utils.rng import RandomState


def run_figure3(
    scale: int = 120,
    random_state: RandomState = 17,
    inner_iterations: int = 25,
    outer_iterations: int = 40,
    tracer: Tracer = None,
) -> Dict:
    """Fit SLAMPRED and return the per-iteration convergence series.

    Returns ``variable_norms`` (‖S^h‖₁), ``update_norms``
    (‖S^h − S^{h−1}‖₁), ``n_iterations``, ``converged``, ``stop_reason``,
    the final ``certificate`` and ``text``.
    A live ``tracer`` is handed to the model, so the whole CCCP run —
    rounds, gradient/prox spans, the per-round objective breakdown — lands
    in the run report.
    """
    aligned = generate_aligned_pair(scale=scale, random_state=random_state)
    split = k_fold_link_splits(
        SocialGraph.from_network(aligned.target),
        n_folds=5,
        random_state=random_state,
    )[0]
    task = TransferTask(
        target=aligned.target,
        training_graph=split.training_graph,
        sources=list(aligned.sources),
        anchors=list(aligned.anchors),
        random_state=random_state,
    )
    # The explicit step and tolerance pin the figure's trajectory: the
    # golden regression (results/run.figure3.json) asserts iteration
    # counts and norms against exactly this run, so it must not move when
    # the model's default step does.  At step 0.05 the relative
    # certificate needs 1e-10 to draw the full convergence curve.
    model = SlamPred(
        inner_iterations=inner_iterations,
        outer_iterations=outer_iterations,
        tolerance=1e-10,
        step_size=0.05,
        tracer=tracer,
    )
    model.fit(task)
    result = model.result
    history = result.history
    text = (
        _render(history.variable_norms, history.update_norms)
        + "\n"
        + describe_stop(result.stop_reason, result.certificate)
    )
    return {
        "variable_norms": list(history.variable_norms),
        "update_norms": list(history.update_norms),
        "n_iterations": history.n_iterations,
        "n_rounds": result.n_rounds,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "certificate": result.certificate,
        "text": text,
    }


def _render(variable_norms: List[float], update_norms: List[float]) -> str:
    lines = ["Figure 3 — CCCP convergence", "iter  ||S^h||_1      ||S^h - S^{h-1}||_1"]
    n = len(variable_norms)
    step = max(1, n // 20)
    shown = sorted(set(list(range(0, n, step)) + [n - 1]))
    for i in shown:
        lines.append(f"{i + 1:4d}  {variable_norms[i]:12.4f}  {update_norms[i]:.6f}")
    return "\n".join(lines)


def main(**kwargs) -> None:
    """Print the Figure 3 reproduction."""
    result = run_figure3(**kwargs)
    print(result["text"])
    print(f"\n{result['n_iterations']} proximal iterations, "
          f"{result['n_rounds']} CCCP rounds")


if __name__ == "__main__":
    main()
