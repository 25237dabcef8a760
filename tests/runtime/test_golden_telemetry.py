"""Golden telemetry artifacts: the exported bytes, pinned.

``tests/workload/test_observability.py`` proves serial and sharded runs
export the same telemetry, but a change to the aggregation both paths
share would move both sides together.  This suite pins the sha256 of
the JSON artifact (without the wall-clock ``meta`` section) and of the
Prometheus text for a few telemetry runs, serial and ``--jobs 2``,
against ``golden_telemetry.json``.  Re-record only when the exported
bytes deliberately change: ``PYTHONPATH=src python
scripts/make_goldens.py``.
"""

import hashlib
import json
import pathlib

import pytest

from repro import telemetry
from repro.experiments.registry import builtin_registry
from repro.runtime import TrialExecutor
from repro.telemetry.exporters import to_json_artifact, to_prometheus_text

GOLDENS_PATH = pathlib.Path(__file__).with_name("golden_telemetry.json")
GOLDENS_FORMAT = "repro-golden-telemetry-v1"


def _load_runs():
    document = json.loads(GOLDENS_PATH.read_text(encoding="utf-8"))
    assert document["format"] == GOLDENS_FORMAT
    return document["runs"]


RUNS = _load_runs()


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("jobs", (1, 2), ids=("serial", "jobs2"))
@pytest.mark.parametrize("name", sorted(RUNS))
def test_telemetry_artifacts_match_golden(name, jobs):
    spec = RUNS[name]
    tel = telemetry.Telemetry.from_config(
        telemetry.TelemetryConfig(**spec["config"]))
    telemetry.set_default(tel)
    try:
        run = TrialExecutor(jobs=jobs).run(
            builtin_registry().get(spec["experiment"]), spec["overrides"])
    finally:
        telemetry.clear_default()
    assert run.ok, [failure.describe() for failure in run.failures]
    document = to_json_artifact(tel.metrics, spans=tel.tracer.finished,
                                timeseries=tel.timeseries, tail=tel.tail)
    assert {"json": _sha256(json.dumps(document, sort_keys=True)),
            "prometheus": _sha256(to_prometheus_text(tel.metrics))} == \
        spec["digests"], (
            f"{name} telemetry drifted from its golden with jobs={jobs}; "
            f"if the change is deliberate, re-record with "
            f"scripts/make_goldens.py")
