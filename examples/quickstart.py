"""Quickstart: predict social links in a target network with SLAMPRED.

Generates a small aligned Foursquare/Twitter-like pair, hides 20% of the
target's links, fits the full SLAMPRED model with telemetry enabled and
reports how well the hidden links are recovered — plus where the solver's
wall-clock went, read back from the archived run report.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    RunReport,
    SlamPred,
    SocialGraph,
    Tracer,
    TransferTask,
    auc_score,
    default_report_path,
    generate_aligned_pair,
    k_fold_link_splits,
    precision_at_k,
)


def main() -> None:
    # 1. An aligned pair: a Twitter-like target + Foursquare-like source
    #    sharing ~90% of their users through anchor links.
    aligned = generate_aligned_pair(scale=120, random_state=7)
    target, source = aligned.target, aligned.sources[0]
    print(f"target  {target.name}: {target.n_users} users, "
          f"{target.n_social_links} links, {target.n_posts} posts")
    print(f"source  {source.name}: {source.n_users} users, "
          f"{source.n_social_links} links, {source.n_posts} posts")
    print(f"anchors: {len(aligned.anchors[0])}")

    # 2. Hide one fold of target links as the ground truth to recover.
    graph = SocialGraph.from_network(target)
    split = k_fold_link_splits(graph, n_folds=5, random_state=7)[0]
    print(f"\nhidden test links: {len(split.test_links)}")

    # 3. Fit SLAMPRED on the training view, with solver telemetry on: the
    #    fit runs in one trace of this tracer, which samples every trace by
    #    default.  (Omit the tracer — or pass NullTracer() — for the
    #    zero-overhead path; the fitted S is bit-identical either way.)
    task = TransferTask(
        target=target,
        training_graph=split.training_graph,
        sources=list(aligned.sources),
        anchors=list(aligned.anchors),
        random_state=7,
    )
    tracer = Tracer()
    model = SlamPred(tracer=tracer).fit(task)
    print(f"CCCP: {model.result.n_rounds} rounds, "
          f"{model.result.history.n_iterations} proximal iterations, "
          f"converged={model.result.converged}")

    # 4. Score the hidden links against sampled non-links.
    scores = model.score_pairs(split.test_pairs)
    labels = split.test_labels
    print(f"\nAUC           : {auc_score(scores, labels):.3f}")
    print(f"Precision@20  : {precision_at_k(scores, labels, 20):.3f}")

    # 5. The predictor matrix itself is the deliverable: confidence scores
    #    for every user pair in [0, 1].
    candidates = split.training_graph.non_links()
    candidate_scores = model.score_pairs(candidates)
    top = np.argsort(-candidate_scores)[:5]
    print("\ntop-5 predicted new links (user_i, user_j, confidence):")
    for idx in top:
        i, j = candidates[idx]
        print(f"  ({i:3d}, {j:3d})  {candidate_scores[idx]:.3f}")

    # 6. Archive the fit's trace as a schema-versioned JSON report and read
    #    it back: per-phase wall-clock, the retained SVD rank of every
    #    trace-norm prox apply, and the objective broken out by term.  The
    #    objective is evaluated once per CCCP round, on the round's last
    #    iterate, so the run's last record carries the final one.
    report_path = model.run_report(name="quickstart").save(
        default_report_path("quickstart")
    )
    report = RunReport.load(report_path)
    print(f"\nrun report ({report_path}):")
    print(report.summary())
    last = report.iterations[-1]
    print("\nfinal objective terms:")
    for term, value in sorted(last["objective_terms"].items()):
        print(f"  {term:<24} {value:12.4f}")


if __name__ == "__main__":
    main()
