"""Unit tests for trial orchestration and parameter sweeps."""

import os

import numpy as np
import pytest

from repro.analysis import CellFailure, run_trials, sweep, trial_rng, trial_rngs


def _draw(rng):
    """Module-level trial function so worker processes can pickle it."""
    return float(rng.random())


def _metric(value, rng):
    """Module-level metric function so worker processes can pickle it."""
    return {"double": 2.0 * value, "noise": float(rng.random())}


def _fragile_metric(value, rng):
    """Raises on value 13 — exercises graceful cell failure."""
    if value == 13:
        raise RuntimeError("unlucky value")
    return {"double": 2.0 * value}


def _poison_metric(value, rng):
    """Kills its worker process outright on value 13 (parallel only):
    os._exit bypasses exception handling, so the pool breaks."""
    if value == 13:
        os._exit(1)
    return {"double": 2.0 * value}


class TestTrialRngs:
    def test_count(self):
        assert len(trial_rngs(5, 42)) == 5

    def test_reproducible(self):
        a = [r.integers(1 << 30) for r in trial_rngs(4, 7)]
        b = [r.integers(1 << 30) for r in trial_rngs(4, 7)]
        assert a == b

    def test_independent_streams(self):
        draws = [r.integers(1 << 30) for r in trial_rngs(8, 7)]
        assert len(set(draws)) == 8

    def test_prefix_stability(self):
        # Requesting more trials must not change the earlier streams.
        a = [r.integers(1 << 30) for r in trial_rngs(3, 9)]
        b = [r.integers(1 << 30) for r in trial_rngs(6, 9)][:3]
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            trial_rngs(0, 1)


class TestTrialRng:
    def test_matches_spawned_stream(self):
        # trial_rng(t, s, i) must be exactly the i-th of trial_rngs(t, s):
        # that identity is what makes parallel runs scheduling-independent.
        whole = [r.integers(1 << 30) for r in trial_rngs(5, 11)]
        each = [trial_rng(5, 11, i).integers(1 << 30) for i in range(5)]
        assert whole == each

    @pytest.mark.parametrize(
        "trials, seed, index",
        [(1, 0, 0), (20, 4242, 0), (20, 4242, 19), (20, 4242 + 7919 * 3, 7), (7, 2**40, 6)],
    )
    def test_direct_child_equals_spawned_child(self, trials, seed, index):
        # Built from its spawn key alone, without spawning the siblings.
        spawned = trial_rngs(trials, seed)[index].random(8)
        direct = trial_rng(trials, seed, index).random(8)
        assert spawned.tolist() == direct.tolist()

    def test_index_validated(self):
        with pytest.raises(ValueError):
            trial_rng(3, 0, 3)
        with pytest.raises(ValueError):
            trial_rng(3, 0, -1)


class TestRunTrials:
    def test_collects_results(self):
        out = run_trials(lambda rng: float(rng.random()), trials=5, seed=3)
        assert len(out) == 5 and len(set(out)) == 5


class TestSweep:
    def test_aggregates_per_value(self):
        points = sweep(
            [1, 2, 3],
            lambda v, rng: {"double": 2 * v, "noise": rng.random()},
            trials=4,
            seed=0,
        )
        assert [p.value for p in points] == [1, 2, 3]
        assert points[1].metrics["double"].mean == 4.0
        assert points[0].metrics["noise"].n == 4

    def test_missing_keys_tolerated(self):
        def fn(v, rng):
            out = {"always": 1.0}
            if rng.random() < 0.5:
                out["sometimes"] = 2.0
            return out

        points = sweep([0], fn, trials=20, seed=5)
        m = points[0].metrics
        assert m["always"].n == 20
        assert 0 < m["sometimes"].n < 20

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            sweep([1], _metric, trials=0, seed=0)


class TestParallelHarness:
    def test_run_trials_jobs_identical_to_serial(self):
        serial = run_trials(_draw, trials=6, seed=13)
        parallel = run_trials(_draw, trials=6, seed=13, jobs=2)
        assert serial == parallel  # exact floats, in trial order

    def test_sweep_jobs_identical_to_serial(self):
        serial = sweep([1, 2, 3], _metric, trials=4, seed=9)
        parallel = sweep([1, 2, 3], _metric, trials=4, seed=9, jobs=2)
        assert serial == parallel  # Summary dataclasses compare exactly


class TestSweepFailures:
    def test_raising_cell_recorded_not_fatal(self):
        points = sweep([1, 13, 3], _fragile_metric, trials=3, seed=0)
        assert [p.value for p in points] == [1, 13, 3]
        assert points[0].failures == ()
        assert points[2].failures == ()
        assert points[0].metrics["double"].n == 3
        # the failing value has no samples, three structured failures
        assert points[1].metrics == {}
        assert len(points[1].failures) == 3
        for ti, failure in enumerate(points[1].failures):
            assert failure == CellFailure(
                value=13, trial=ti, error="RuntimeError: unlucky value"
            )

    def test_partial_failure_keeps_other_trials(self):
        def flaky(value, rng):
            if rng.random() < 0.5:
                raise ValueError("flaked")
            return {"ok": 1.0}

        points = sweep([0], flaky, trials=30, seed=4)
        kept = points[0].metrics.get("ok")
        assert kept is not None and 0 < kept.n < 30
        assert len(points[0].failures) == 30 - kept.n
        assert all(f.error == "ValueError: flaked" for f in points[0].failures)

    def test_failures_identical_serial_and_parallel(self):
        serial = sweep([1, 13, 3], _fragile_metric, trials=3, seed=9)
        parallel = sweep([1, 13, 3], _fragile_metric, trials=3, seed=9, jobs=2)
        assert serial == parallel

    def test_broken_pool_retried_and_reported(self):
        # One poison cell kills its worker; the sweep must resume on a
        # fresh pool, chalk the dead cell up as a failure, and finish
        # the healthy values normally.  chunk_size forces worker
        # isolation (the amortization estimate would run a sweep this
        # small in-parent, where os._exit would kill the test).
        points = sweep(
            [1, 13, 3], _poison_metric, trials=1, seed=0, jobs=2, chunk_size=1
        )
        assert [p.value for p in points] == [1, 13, 3]
        assert points[1].metrics == {}
        assert len(points[1].failures) == 1
        assert "BrokenProcessPool" in points[1].failures[0].error
        # both healthy values fully evaluated (no trials lost)
        assert points[0].metrics["double"].n == 1
        assert points[2].metrics["double"].n == 1
