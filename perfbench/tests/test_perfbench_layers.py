"""The traced run's wrappers reach the names callers actually use, and
the benchmark reports exactly the metrics ``BENCHMARK.json`` declares."""

import json
import pathlib

from layers import install, layer_metrics
from run import runtime_metrics
from spans import Recorder
from workloads import WORKLOADS

from repro import telemetry
from repro.cdn import allocation
from repro.experiments import population
from repro.experiments.registry import builtin_registry
from repro.runtime import TrialExecutor, result_digest

BENCH = pathlib.Path(__file__).resolve().parent.parent
SMALL = {"target_queries": 3_000, "districts": 1, "seed": 42}


def _run(experiment):
    telemetry.set_default(telemetry.Telemetry(trace_sample=0.05,
                                              window_ms=300_000.0))
    try:
        return TrialExecutor(jobs=1).run(experiment, SMALL)
    finally:
        telemetry.clear_default()


def test_population_binding_sites_are_hit_and_output_unchanged():
    experiment = builtin_registry().get("population")
    plain = _run(experiment)
    original_hash_point = allocation.hash_point
    original_calibrate = population.calibrate

    recorder = Recorder()
    undo = install(recorder, type(experiment))
    try:
        assert population.calibrate is not original_calibrate
        traced = _run(experiment)
    finally:
        undo()
    assert allocation.hash_point is original_hash_point
    assert population.calibrate is original_calibrate

    assert result_digest(traced.result) == result_digest(plain.result)
    metrics = layer_metrics(recorder, wall_s=1.0)
    assert metrics["cdn.hash_point_calls"] > 0
    assert metrics["workload.calibrate_calls"] == 6
    assert metrics["cdn.ring_pick_calls"] > 0
    assert metrics["workload.cache_lookup_calls"] == sum(
        row.queries for row in plain.result.rows)
    assert metrics["measure.hist_add_calls"] == 2 * sum(
        row.queries for row in plain.result.rows)
    assert metrics["telemetry.tail_offer_calls"] > 0
    assert 0.0 < metrics["telemetry.tail_kept_ratio"] <= 1.0
    assert recorder.spans("experiments.run_trial") == 6
    assert {request for name, *_, request in recorder.kept
            if name == "experiments.run_trial"} == {
                f"trial{index}" for index in range(6)}



def test_declaration_matches_what_the_benchmark_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    traced = set(layer_metrics(Recorder(), wall_s=1.0))
    runtime = set(runtime_metrics({"chunk_wall_s": [1.0], "workers": 1,
                                   "wall_s": 1.0, "merge_s": 0.0,
                                   "trials": 1}))
    reported = traced | runtime | {"trace.overhead_frac"}
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(reported)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "queries_per_s", "setup_s", "peak_rss_mb", "ok_frac"]
