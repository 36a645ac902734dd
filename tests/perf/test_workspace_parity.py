"""The workspace-backed inner loop must be fast, never different.

The seed solver's inner loop allocated four n×n temporaries per
iteration; the workspace loop allocates none.  These tests pin the two
loops to *bitwise* equality (``np.array_equal``, not allclose) on the
paper's composite problem, and exercise the workspace mechanics the
equality rests on (ping-pong buffers, ownership, scratch-backed norms).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import OptimizationError
from repro.optim.convergence import ConvergenceCriterion, IterationHistory
from repro.optim.forward_backward import (
    ForwardBackwardSolver,
    GeneralizedForwardBackward,
)
from repro.optim.losses import LinearizedIntimacyTerm, SquaredFrobeniusLoss
from repro.optim.proximal import BoxProjection, L1Prox, TraceNormProx
from repro.perf.workspace import Workspace

N = 24


def _problem(rng):
    """The paper's inner-loop problem: loss + linearized intimacy term,
    trace-norm + l1 + box proxes (no SVT engine: seed numerics)."""
    adjacency = (rng.random((N, N)) < 0.3).astype(float)
    adjacency = np.maximum(adjacency, adjacency.T)
    gradient = rng.normal(size=(N, N)) * 0.1
    smooth = [SquaredFrobeniusLoss(adjacency), LinearizedIntimacyTerm(gradient)]
    proxes = [TraceNormProx(1.0), L1Prox(1.0), BoxProjection(0.0, None)]
    return adjacency, smooth, proxes


def _seed_replica_loop(initial, smooth_terms, prox_terms, step, criterion):
    """The seed solver's allocating inner loop, verbatim semantics."""
    current = np.asarray(initial, dtype=float).copy()
    for _ in range(criterion.max_iterations):
        previous = current
        gradient = np.zeros_like(previous)
        for term in smooth_terms:
            gradient += term.gradient(previous)
        current = previous - step * gradient
        for prox in prox_terms:
            current = prox.apply(current, step)
        if float(np.abs(current - previous).sum()) < criterion.tolerance:
            break
    return current


class TestBitwiseParity:
    def test_fast_loop_matches_seed_replica(self, rng):
        adjacency, smooth, proxes = _problem(rng)
        criterion = ConvergenceCriterion(tolerance=1e-8, max_iterations=40)
        solver = ForwardBackwardSolver(step_size=0.05, criterion=criterion)
        fast = solver.solve(np.zeros_like(adjacency), smooth, proxes)
        reference = _seed_replica_loop(
            np.zeros_like(adjacency), smooth, proxes, 0.05, criterion
        )
        assert np.array_equal(fast, reference)

    def test_workspace_reuse_across_solves_stays_bitwise(self, rng):
        """Round 2 reuses round 1's buffers — contents must not leak in."""
        adjacency, smooth, proxes = _problem(rng)
        criterion = ConvergenceCriterion(tolerance=1e-8, max_iterations=25)
        solver = ForwardBackwardSolver(step_size=0.05, criterion=criterion)
        first = solver.solve(np.zeros_like(adjacency), smooth, proxes)
        ws = solver._workspace
        second = solver.solve(first, smooth, proxes)
        assert solver._workspace is ws  # reused, not reallocated
        reference = _seed_replica_loop(first, smooth, proxes, 0.05, criterion)
        assert np.array_equal(second, reference)

    def test_result_never_aliases_workspace(self, rng):
        adjacency, smooth, proxes = _problem(rng)
        solver = ForwardBackwardSolver(
            step_size=0.05,
            criterion=ConvergenceCriterion(tolerance=1e-8, max_iterations=10),
        )
        result = solver.solve(np.zeros_like(adjacency), smooth, proxes)
        assert not solver._workspace.owns(result)

    def test_history_norms_match_legacy(self, rng):
        """record_norms must record the seed loop's l1 norms exactly."""
        adjacency, smooth, proxes = _problem(rng)
        criterion = ConvergenceCriterion(tolerance=1e-8, max_iterations=15)
        solver = ForwardBackwardSolver(step_size=0.05, criterion=criterion)
        history = IterationHistory()
        solver.solve(np.zeros_like(adjacency), smooth, proxes, history=history)
        # Replay the replica loop, collecting the legacy norms.
        current = np.zeros_like(adjacency)
        norms = []
        for _ in range(criterion.max_iterations):
            previous = current
            gradient = np.zeros_like(previous)
            for term in smooth:
                gradient += term.gradient(previous)
            current = previous - 0.05 * gradient
            for prox in proxes:
                current = prox.apply(current, 0.05)
            update = float(np.abs(current - previous).sum())
            norms.append((float(np.abs(current).sum()), update))
            if update < criterion.tolerance:
                break
        assert [
            (r.variable_norm, r.update_norm) for r in history.records
        ] == norms


class TestFastPathRecovery:
    def test_fast_loop_halves_step_and_recovers(self, rng):
        target = (rng.random((12, 12)) < 0.3).astype(float)
        solver = ForwardBackwardSolver(
            step_size=1.8,  # |1 - 2*1.8| = 2.6: diverges unhalved
            criterion=ConvergenceCriterion(
                tolerance=1e-10, max_iterations=500
            ),
            max_step_halvings=3,
        )
        result = solver.solve(
            np.zeros_like(target), [SquaredFrobeniusLoss(target)], []
        )
        np.testing.assert_allclose(result, target, atol=1e-4)

    def test_fast_loop_zero_budget_fails_fast(self, rng):
        target = (rng.random((8, 8)) < 0.3).astype(float)
        solver = ForwardBackwardSolver(
            step_size=1.8,
            criterion=ConvergenceCriterion(max_iterations=500),
            max_step_halvings=0,
        )
        with pytest.raises(OptimizationError, match="diverged"):
            solver.solve(
                np.zeros_like(target), [SquaredFrobeniusLoss(target)], []
            )

    def test_gfb_halves_step_and_recovers(self, rng):
        target = (rng.random((12, 12)) < 0.3).astype(float)
        solver = GeneralizedForwardBackward(
            step_size=1.8,  # diverges unhalved; one halving stabilizes it
            criterion=ConvergenceCriterion(
                tolerance=1e-10, max_iterations=800
            ),
            max_step_halvings=3,
        )
        result = solver.solve(
            np.zeros_like(target),
            [SquaredFrobeniusLoss(target)],
            [L1Prox(1e-3)],
        )
        np.testing.assert_allclose(result, target, atol=1e-3)

    def test_gfb_zero_budget_fails_fast(self, rng):
        target = (rng.random((12, 12)) < 0.3).astype(float)
        solver = GeneralizedForwardBackward(
            step_size=1.8,
            criterion=ConvergenceCriterion(max_iterations=800),
            max_step_halvings=0,
        )
        with pytest.raises(OptimizationError, match="diverged"):
            solver.solve(
                np.zeros_like(target),
                [SquaredFrobeniusLoss(target)],
                [L1Prox(1e-3)],
            )

    def test_gfb_budget_exhaustion_raises(self, rng):
        target = (rng.random((8, 8)) < 0.3).astype(float)
        solver = GeneralizedForwardBackward(
            step_size=1e9,  # even 3 halvings cannot save this
            criterion=ConvergenceCriterion(max_iterations=500),
            max_step_halvings=3,
        )
        with pytest.raises(OptimizationError, match="diverged"):
            solver.solve(
                np.zeros_like(target),
                [SquaredFrobeniusLoss(target)],
                [L1Prox(1e-3)],
            )


class TestWorkspace:
    def test_ensure_reuses_fitting_workspace(self):
        matrix = np.zeros((6, 6))
        ws = Workspace.ensure(None, matrix)
        assert Workspace.ensure(ws, matrix) is ws

    def test_ensure_replaces_mismatched_workspace(self):
        ws = Workspace.ensure(None, np.zeros((6, 6)))
        bigger = Workspace.ensure(ws, np.zeros((8, 8)))
        assert bigger is not ws
        assert bigger.shape == (8, 8)

    def test_step_buffers_ping_pong(self):
        ws = Workspace((4, 4))
        first = ws.step_buffer()
        second = ws.step_buffer()
        assert first is not second
        assert ws.step_buffer() is first

    def test_step_buffer_never_returns_avoid(self):
        ws = Workspace((4, 4))
        held = ws.step_buffer()
        for _ in range(4):
            assert ws.step_buffer(avoid=held) is not held

    def test_owns(self):
        ws = Workspace((4, 4))
        assert ws.owns(ws.gradient)
        assert ws.owns(ws.scratch)
        assert ws.owns(ws.step_buffer())
        assert not ws.owns(np.zeros((4, 4)))

    def test_scratch_backed_norms(self, rng):
        ws = Workspace((5, 5))
        a = rng.normal(size=(5, 5))
        b = rng.normal(size=(5, 5))
        assert ws.l1_norm(a) == float(np.abs(a).sum())
        assert ws.l1_update_norm(a, b) == float(np.abs(a - b).sum())
