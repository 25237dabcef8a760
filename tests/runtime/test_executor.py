"""Tests for the sharded trial executor and its isolation contract.

The toy experiments live at module level so worker processes can
unpickle them by qualified name (the tests package is importable).
"""

import pytest

from repro import telemetry
from repro.runtime import (Experiment, Param, TrialExecutor, derive_seed,
                           merge_profile_stats, result_digest)
from repro.runtime.executor import get_worker_pool


class SquareExperiment(Experiment):
    """Cheap deterministic toy: square each cell's value."""

    name = "square"
    title = "toy squares"
    shape_checked = False
    params = (Param("count", int, 4, "number of cells"),
              Param("seed", int, 7, "base seed"))

    def trials(self, params):
        return [self.spec(index,
                          seed=derive_seed(int(params["seed"]),
                                           "square", index),
                          value=index)
                for index in range(int(params["count"]))]

    def run_trial(self, spec):
        value = int(spec.value("value"))
        tel = telemetry.get_default()
        if tel is not None:
            tel.metrics.counter("toy_trials_total", "trials run").inc()
            span = tel.tracer.begin("trial", "toy", "square", value=value)
            tel.tracer.end(span)
        return (value * value, spec.seed)

    def merge(self, params, payloads):
        return [payload[0] for payload in payloads]


class ExplodingExperiment(Experiment):
    """One poisoned cell; its siblings must survive it."""

    name = "exploding"
    title = "toy with one crashing trial"
    shape_checked = False
    params = (Param("count", int, 3, "number of cells"),)

    def trials(self, params):
        return [self.spec(index, seed=0, value=index)
                for index in range(int(params["count"]))]

    def run_trial(self, spec):
        if spec.value("value") == 1:
            raise RuntimeError("boom at 1")
        return spec.value("value")

    def merge(self, params, payloads):
        return list(payloads)


class TestExecutor:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            TrialExecutor(jobs=0)

    def test_serial_run(self):
        run = TrialExecutor(jobs=1).run(SquareExperiment())
        assert run.ok
        assert run.result == [0, 1, 4, 9]
        assert [outcome.spec.index for outcome in run.outcomes] == [0, 1, 2, 3]

    def test_overrides_resolve(self):
        run = TrialExecutor(jobs=1).run(SquareExperiment(), {"count": 2})
        assert run.result == [0, 1]
        assert dict(run.params)["count"] == 2

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="no parameter"):
            TrialExecutor(jobs=1).run(SquareExperiment(), {"bogus": 1})

    def test_pool_matches_serial(self):
        experiment = SquareExperiment()
        serial = TrialExecutor(jobs=1).run(experiment, {"count": 6})
        pooled = TrialExecutor(jobs=2).run(experiment, {"count": 6})
        assert pooled.result == serial.result
        assert result_digest(pooled.result) == result_digest(serial.result)
        # Payload seeds travelled through the pickle boundary unchanged.
        assert [o.payload for o in pooled.outcomes] == \
            [o.payload for o in serial.outcomes]

    def test_sharded_runs_reuse_one_pool(self):
        # Forking a fresh pool per sweep was most of the sharding
        # overhead; back-to-back sharded runs share one pool.
        TrialExecutor(jobs=2).run(SquareExperiment())
        pool = get_worker_pool(2)
        run = TrialExecutor(jobs=2).run(SquareExperiment())
        assert run.executor_stats.pool_reused
        assert get_worker_pool(2) is pool

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_trial_failure_is_isolated(self, jobs):
        run = TrialExecutor(jobs=jobs).run(ExplodingExperiment())
        assert not run.ok
        assert run.result is None
        assert len(run.failures) == 1
        failure = run.failures[0]
        assert failure.error == "RuntimeError"
        assert failure.message == "boom at 1"
        assert "boom at 1" in failure.traceback
        assert "exploding[1]" in failure.describe()
        # The siblings still produced their payloads.
        payloads = [outcome.payload for outcome in run.outcomes]
        assert payloads[0] == 0 and payloads[2] == 2


class TestTelemetryCapture:
    def teardown_method(self):
        telemetry.clear_default()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_session_telemetry_collects_across_trials(self, jobs):
        session = telemetry.Telemetry()
        telemetry.set_default(session)
        run = TrialExecutor(jobs=jobs).run(SquareExperiment(), {"count": 4})
        assert run.ok
        # The session facade is still installed after the run.
        assert telemetry.get_default() is session
        counter = session.metrics.counter("toy_trials_total", "trials run")
        assert counter.total() == 4.0
        assert len(session.tracer.finished) == 4

    def test_sharded_telemetry_merges_in_spec_order(self):
        serial = telemetry.Telemetry()
        telemetry.set_default(serial)
        TrialExecutor(jobs=1).run(SquareExperiment(), {"count": 5})
        telemetry.clear_default()

        pooled = telemetry.Telemetry()
        telemetry.set_default(pooled)
        TrialExecutor(jobs=2).run(SquareExperiment(), {"count": 5})
        telemetry.clear_default()

        serial_values = [span.attrs.get("value")
                         for span in serial.tracer.finished]
        pooled_values = [span.attrs.get("value")
                         for span in pooled.tracer.finished]
        assert pooled_values == serial_values == [0, 1, 2, 3, 4]

    def test_no_session_means_no_capture(self):
        run = TrialExecutor(jobs=1).run(SquareExperiment(), {"count": 2})
        assert run.ok
        assert telemetry.get_default() is None


def _run_trial_row(stats):
    """The merged cProfile row for the experiment's ``run_trial``."""
    rows = [row for (_, _, funcname), row in stats.items()
            if funcname == "run_trial"]
    assert len(rows) == 1
    return rows[0]


class TestProfileCapture:
    def test_profiling_off_by_default(self):
        run = TrialExecutor(jobs=1).run(SquareExperiment())
        assert run.ok
        assert run.profile_stats is None

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_per_trial_profiles_merge_across_backends(self, jobs):
        run = TrialExecutor(jobs=jobs, profile=True).run(
            SquareExperiment(), {"count": 6})
        assert run.ok
        stats = run.profile_stats
        assert stats
        # Rows are (cc, nc, tt, ct, callers); run_trial is called once
        # per trial, so the merged table must account for all six —
        # regardless of which worker profiled which trial.
        cc, nc, _, ct, _ = _run_trial_row(stats)
        assert cc == nc == 6
        assert ct >= 0.0

    def test_profiling_does_not_change_results(self):
        experiment = SquareExperiment()
        plain = TrialExecutor(jobs=1).run(experiment, {"count": 5})
        profiled = TrialExecutor(jobs=1, profile=True).run(
            experiment, {"count": 5})
        assert profiled.result == plain.result
        assert result_digest(profiled.result) == result_digest(plain.result)

    def test_merge_profile_stats_adds_componentwise(self):
        func = ("toy.py", 1, "f")
        caller = ("toy.py", 9, "main")
        first = {func: (2, 2, 0.5, 1.0, {caller: (2, 2, 0.5, 1.0)})}
        second = {func: (3, 4, 0.25, 0.5, {caller: (3, 4, 0.25, 0.5)})}
        merged = merge_profile_stats([first, None, second])
        cc, nc, tt, ct, callers = merged[func]
        assert (cc, nc, tt, ct) == (5, 6, 0.75, 1.5)
        assert callers[caller] == (5, 6, 0.75, 1.5)
        assert merge_profile_stats([None, None]) is None
