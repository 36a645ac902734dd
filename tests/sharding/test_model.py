"""ShardedSlamPred: parity, determinism, checkpoints, scoring."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.exceptions import ConfigurationError, NotFittedError
from repro.models.slampred import SlamPredH
from repro.sharding.model import ShardedSlamPred

_FIT_KWARGS = dict(
    svd_rank=8,
    inner_iterations=3,
    outer_iterations=2,
)


@pytest.fixture(scope="module")
def block_adjacency():
    """A 160-user two-block graph with planted labels."""
    rng = np.random.default_rng(11)
    n, blocks = 160, 2
    labels = np.arange(n) // (n // blocks)
    probs = np.where(labels[:, None] == labels[None, :], 0.25, 0.02)
    dense = (rng.random((n, n)) < probs).astype(float)
    dense = np.maximum(dense, dense.T)
    np.fill_diagonal(dense, 0.0)
    return sparse.csr_matrix(dense), labels


def _assert_estimates_identical(first, second):
    assert len(first) == len(second)
    for a, b in zip(first, second):
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.s, b.s)
        assert np.array_equal(a.vt, b.vt)
        assert np.array_equal(a.residual.toarray(), b.residual.toarray())


class TestSingleShardParity:
    def test_reproduces_unsharded_trajectory(self, block_adjacency):
        """shards=1 must be the unsharded factored fit, bit for bit."""
        adjacency, labels = block_adjacency
        sharded = ShardedSlamPred(
            n_shards=1, use_processes=False, **_FIT_KWARGS
        )
        sharded.fit(adjacency, labels=labels)
        reference = SlamPredH(
            factored=True,
            svt_options={
                "seed": sharded.seed,
                "dense_fallback_cutoff": 0,
            },
            **_FIT_KWARGS,
        )
        estimate = reference.fit_adjacency(adjacency).factored_estimate
        merged = sharded.estimates[0]
        gap = np.abs(
            merged.to_dense() - estimate.to_dense()
        ).max()
        assert gap <= 1e-8
        assert sharded.scales.tolist() == [1.0]


class TestDeterminism:
    def test_identical_across_worker_scheduling(self, block_adjacency):
        """Process fan-out, thread fallback and serial runs all agree."""
        adjacency, labels = block_adjacency
        fits = []
        for use_processes, workers in (
            (True, 2),
            (False, 2),
            (False, 1),
        ):
            model = ShardedSlamPred(
                n_shards=2,
                use_processes=use_processes,
                max_workers=workers,
                **_FIT_KWARGS,
            )
            model.fit(adjacency, labels=labels)
            fits.append(model.estimates)
        _assert_estimates_identical(fits[0], fits[1])
        _assert_estimates_identical(fits[0], fits[2])

    def test_per_shard_seeds_differ(self, block_adjacency):
        from repro.sharding.partition import plan_shards

        adjacency, labels = block_adjacency
        model = ShardedSlamPred(
            n_shards=2, use_processes=False, **_FIT_KWARGS
        )
        plan = plan_shards(labels, 2, adjacency=adjacency)
        jobs = model._build_jobs(adjacency, plan)
        seeds = [job["svt_seed"] for job in jobs]
        assert seeds == [model.seed, model.seed + 1]


class TestCheckpoints:
    def test_refit_resumes_from_shard_checkpoints(
        self, block_adjacency, tmp_path
    ):
        adjacency, labels = block_adjacency
        kwargs = dict(
            n_shards=2,
            use_processes=False,
            checkpoint_dir=str(tmp_path / "ckpt"),
            **_FIT_KWARGS,
        )
        first = ShardedSlamPred(**kwargs)
        first.fit(adjacency, labels=labels)
        assert all(not s["resumed"] for s in first.shard_stats)
        second = ShardedSlamPred(**kwargs)
        second.fit(adjacency, labels=labels)
        assert all(s["resumed"] for s in second.shard_stats)
        _assert_estimates_identical(first.estimates, second.estimates)

    def test_checkpoint_ignored_when_config_changes(
        self, block_adjacency, tmp_path
    ):
        adjacency, labels = block_adjacency
        kwargs = dict(
            n_shards=2,
            use_processes=False,
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        ShardedSlamPred(**kwargs, **_FIT_KWARGS).fit(
            adjacency, labels=labels
        )
        changed = ShardedSlamPred(
            **kwargs,
            svd_rank=6,
            inner_iterations=_FIT_KWARGS["inner_iterations"],
            outer_iterations=_FIT_KWARGS["outer_iterations"],
        )
        changed.fit(adjacency, labels=labels)
        assert all(not s["resumed"] for s in changed.shard_stats)


class TestScoring:
    def test_score_pairs_zero_outside_any_shard(self, block_adjacency):
        adjacency, labels = block_adjacency
        model = ShardedSlamPred(
            n_shards=2, use_processes=False, max_anchors=1, **_FIT_KWARGS
        )
        model.fit(adjacency, labels=labels)
        # A cross-community pair neither shard fully models scores 0.
        replicated = np.concatenate(model.plan.anchors)
        left = next(
            u for u in np.flatnonzero(labels == 0) if u not in replicated
        )
        right = next(
            u for u in np.flatnonzero(labels == 1) if u not in replicated
        )
        scores = model.score_pairs(np.array([(int(left), int(right))]))
        assert scores[0] == 0.0

    def test_score_pairs_nonnegative_and_diagonal_free(
        self, block_adjacency
    ):
        adjacency, labels = block_adjacency
        model = ShardedSlamPred(
            n_shards=2, use_processes=False, **_FIT_KWARGS
        )
        model.fit(adjacency, labels=labels)
        pairs = np.array([[0, 0], [0, 1], [1, 5]])
        scores = model.score_pairs(pairs)
        assert scores[0] == 0.0  # self pair
        assert np.all(scores >= 0.0)

    def test_detects_communities_when_labels_omitted(self, block_adjacency):
        adjacency, _ = block_adjacency
        model = ShardedSlamPred(
            n_shards=2, use_processes=False, **_FIT_KWARGS
        )
        model.fit(adjacency)
        assert model.plan.n_shards == 2
        assert len(model.estimates) == 2


class TestTracing:
    def test_traced_fit_is_one_trace_with_shard_spans(self, block_adjacency):
        from repro.observability.tracer import Tracer

        adjacency, labels = block_adjacency
        tracer = Tracer()
        model = ShardedSlamPred(
            n_shards=2, use_processes=False, tracer=tracer, **_FIT_KWARGS
        )
        model.fit(adjacency, labels=labels)
        (trace,) = tracer.finished()
        assert [child.name for child in trace.root.children] == [
            "sharding.fit_shards",
            "sharding.stitch",
        ]
        assert [
            shard.name for shard in trace.root.children[0].children
        ] == ["sharding.fit_shard[000]", "sharding.fit_shard[001]"]
        assert len(trace.metrics["sharding.shard_seconds"]) == 2


class TestValidation:
    def test_unfitted_access_raises(self):
        model = ShardedSlamPred(n_shards=2)
        with pytest.raises(NotFittedError):
            model.plan
        with pytest.raises(NotFittedError):
            model.estimates

    def test_rejects_label_length_mismatch(self, block_adjacency):
        adjacency, labels = block_adjacency
        model = ShardedSlamPred(
            n_shards=2, use_processes=False, **_FIT_KWARGS
        )
        with pytest.raises(ConfigurationError):
            model.fit(adjacency, labels=labels[:-1])

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ConfigurationError):
            ShardedSlamPred(n_shards=0)
