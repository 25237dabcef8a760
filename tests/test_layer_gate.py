"""``scripts/layer_gate.py`` on synthetic perfbench records.

The gate pins every exact count and ratio of a traced perfbench run
against ``perf/LAYER_COUNTS.json``; these cases check what it reports
without running the benchmark.
"""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location(
    "layer_gate", ROOT / "scripts" / "layer_gate.py")
layer_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layer_gate)

PER_LAYER = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
EXACT = [metric["name"] for metric in PER_LAYER
         if metric["unit"] in ("count", "ratio")
         and metric["name"] not in layer_gate.EXCLUDED]


def _values(changed=None):
    """A record's values: every exact metric at 100, then ``changed``."""
    values = {name: 100 for name in EXACT}
    values.update({name: 0.05 for name in layer_gate.EXCLUDED})
    values.update(changed or {})
    return values


def _gate(tmp_path, capsys, values, workload="testbed", nproc=2):
    committed = tmp_path / "LAYER_COUNTS.json"
    committed.write_text(json.dumps({workload: {"42": {
        name: 100 for name in EXACT}}}))
    record = tmp_path / "record.json"
    record.write_text(json.dumps({
        "provenance": {"workload": workload, "seed": 42, "nproc": nproc},
        "stats": {name: {"median": value} for name, value in values.items()
                  if value is not None}}))
    code = layer_gate.main([str(committed), str(record)])
    return code, capsys.readouterr().out


def test_unchanged_counts_pass(tmp_path, capsys):
    code, out = _gate(tmp_path, capsys, _values())
    assert code == 0, out


def test_risen_count_fails_naming_its_layer(tmp_path, capsys):
    code, out = _gate(tmp_path, capsys, _values({"cdn.hash_point_calls": 101}))
    assert code == 1
    assert "cdn.hash_point_calls (layer cdn) 100 -> 101: regression" in out


def test_fallen_count_fails_as_an_improvement_to_re_record(tmp_path, capsys):
    code, out = _gate(tmp_path, capsys, _values({"netsim.events": 99}))
    assert code == 1
    assert "netsim.events (layer netsim) 100 -> 99: improvement" in out
    assert "re-record perf/LAYER_COUNTS.json" in out


def test_fallen_hit_ratio_is_a_regression(tmp_path, capsys):
    code, out = _gate(tmp_path, capsys,
                      _values({"workload.cache_hit_ratio": 99}))
    assert code == 1
    assert "workload.cache_hit_ratio (layer workload) 100 -> 99: regression" \
        in out


@pytest.mark.parametrize("name", sorted(layer_gate.EXCLUDED))
def test_change_to_an_excluded_metric_passes(tmp_path, capsys, name):
    code, out = _gate(tmp_path, capsys, _values({name: 7}))
    assert code == 0, out


def test_metric_missing_from_the_record_fails(tmp_path, capsys):
    code, out = _gate(tmp_path, capsys, _values({"mec.coredns_calls": None}))
    assert code == 1
    assert "mec.coredns_calls (layer mec) missing from the record" in out


def test_population_dispatch_floor(tmp_path, capsys):
    # 2 CPUs at idle 0.5: one process' worth of trial-busy seconds.
    one_process = _values({"runtime.worker_idle_frac": 0.5})
    code, out = _gate(tmp_path, capsys, one_process, workload="population")
    assert code == 1
    assert "runtime.worker_idle_frac (layer runtime)" in out
    parallel = _values({"runtime.worker_idle_frac": 0.1})
    assert _gate(tmp_path, capsys, parallel, workload="population")[0] == 0
    # On one CPU there is no parallelism to ask for.
    assert _gate(tmp_path, capsys, one_process, workload="population",
                 nproc=1)[0] == 0


def test_committed_counts_cover_every_exact_metric():
    committed = json.loads((ROOT / "perf" / "LAYER_COUNTS.json").read_text())
    assert sorted(committed) == ["flood", "population", "testbed"]
    for workload, seeds in committed.items():
        assert sorted(seeds["42"]) == sorted(EXACT), workload
