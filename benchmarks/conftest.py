"""Shared benchmark fixtures.

Benchmarks run the same experiment code as ``repro.experiments`` at compact
scale so ``pytest benchmarks/ --benchmark-only`` finishes in minutes.  Run
with ``-s`` to see the regenerated tables and series alongside the timings;
scale parameters can be raised for paper-sized runs (see EXPERIMENTS.md).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation.splits import k_fold_link_splits
from repro.networks.social import SocialGraph
from repro.synth.generator import generate_aligned_pair

BENCH_SCALE = 70
BENCH_SEED = 99


@pytest.fixture(scope="session")
def bench_aligned():
    """The benchmark world (session-scoped: generated once)."""
    return generate_aligned_pair(scale=BENCH_SCALE, random_state=BENCH_SEED)


@pytest.fixture(scope="session")
def bench_splits(bench_aligned):
    """Two folds over the benchmark target."""
    graph = SocialGraph.from_network(bench_aligned.target)
    return k_fold_link_splits(graph, n_folds=2, random_state=BENCH_SEED)


@pytest.fixture()
def rng():
    """A fresh deterministic generator per benchmark."""
    return np.random.default_rng(2718)
