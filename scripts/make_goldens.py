#!/usr/bin/env python
"""Re-record ``tests/runtime/golden_digests.json`` and
``tests/runtime/golden_telemetry.json``.

The golden file pins every registered experiment's ``result_digest`` so
performance work can prove it changed *speed only* (see
``tests/runtime/test_golden_digests.py``).  Run this ONLY when an
experiment's behaviour deliberately changes — a drift caused by an
optimisation is a bug, not a reason to re-golden:

    PYTHONPATH=src python scripts/make_goldens.py [--out PATH]

Overrides live in the golden file itself and are carried over verbatim;
a newly registered experiment gets an empty override set, which the
author should scale down by hand (match tests/runtime/test_equivalence.py)
before committing.  Every digest is recorded from a serial run and
cross-checked against a ``jobs=2`` run before the file is written, so a
freshly recorded golden can never disagree with the sharded backend.

The telemetry goldens pin the exported observability artifacts of a
few runs under ambient telemetry: the sha256 of the JSON artifact
(``meta`` popped, ``sort_keys``) and of the Prometheus text.  Their run
specs are carried over from the committed file the same way.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro import telemetry  # noqa: E402
from repro.experiments.registry import builtin_registry  # noqa: E402
from repro.runtime import TrialExecutor, result_digest  # noqa: E402
from repro.telemetry.exporters import (to_json_artifact,  # noqa: E402
                                       to_prometheus_text)

GOLDENS_PATH = (pathlib.Path(__file__).resolve().parents[1]
                / "tests" / "runtime" / "golden_digests.json")
GOLDENS_FORMAT = "repro-golden-digests-v1"
TELEMETRY_PATH = GOLDENS_PATH.with_name("golden_telemetry.json")
TELEMETRY_FORMAT = "repro-golden-telemetry-v1"
TELEMETRY_COMMENT = (
    "sha256 of the exported telemetry artifacts (JSON artifact without "
    "meta, sort_keys; Prometheus text) per run, serial and --jobs 2. "
    "Regenerate only when the exported bytes deliberately change: "
    "PYTHONPATH=src python scripts/make_goldens.py")
#: The runs the telemetry goldens cover when no committed file exists.
TELEMETRY_RUNS = {
    "population": {"experiment": "population",
                   "overrides": {"districts": 2, "target_queries": 6000},
                   "config": {"trace_sample": 0.05, "window_ms": 60000.0,
                              "tail_capacity": 16}},
    "figure5": {"experiment": "figure5", "overrides": {"queries": 12},
                "config": {}},
    "churn": {"experiment": "churn", "overrides": {},
              "config": {"trace_sample": 1.0, "window_ms": 500.0,
                         "tail_capacity": 8}},
}
COMMENT = ("Pre-refactor artifact digests pinning the hot-path overhaul's "
           "byte-identity contract. Regenerate only when an experiment's "
           "behaviour deliberately changes: "
           "PYTHONPATH=src python scripts/make_goldens.py")


def _tuplify(value):
    if isinstance(value, list):
        return tuple(_tuplify(item) for item in value)
    if isinstance(value, dict):
        return {key: _tuplify(item) for key, item in value.items()}
    return value


def telemetry_digests(spec, jobs):
    """``{"json": sha256, "prometheus": sha256}`` for one telemetry run.

    ``spec`` is one entry of the golden file: experiment name, override
    set, and :class:`~repro.telemetry.TelemetryConfig` fields.
    """
    tel = telemetry.Telemetry.from_config(
        telemetry.TelemetryConfig(**spec["config"]))
    telemetry.set_default(tel)
    try:
        run = TrialExecutor(jobs=jobs).run(
            builtin_registry().get(spec["experiment"]),
            _tuplify(spec["overrides"]))
    finally:
        telemetry.clear_default()
    if not run.ok:
        raise RuntimeError(f"{spec['experiment']} failed with jobs={jobs}")
    # No ``meta``: the wall-clock executor section is never compared.
    document = to_json_artifact(tel.metrics, spans=tel.tracer.finished,
                                timeseries=tel.timeseries, tail=tel.tail)
    artifact = json.dumps(document, sort_keys=True).encode("utf-8")
    prometheus = to_prometheus_text(tel.metrics).encode("utf-8")
    return {"json": hashlib.sha256(artifact).hexdigest(),
            "prometheus": hashlib.sha256(prometheus).hexdigest()}


def record_telemetry(out_path: pathlib.Path) -> None:
    """Re-record the telemetry goldens into ``out_path``."""
    runs = TELEMETRY_RUNS
    if TELEMETRY_PATH.exists():
        document = json.loads(TELEMETRY_PATH.read_text(encoding="utf-8"))
        if document.get("format") != TELEMETRY_FORMAT:
            raise SystemExit(
                f"error: {TELEMETRY_PATH} is not {TELEMETRY_FORMAT}")
        runs = document["runs"]
    recorded = {}
    for name in sorted(runs):
        spec = {key: runs[name][key]
                for key in ("experiment", "overrides", "config")}
        digests = telemetry_digests(spec, jobs=1)
        if telemetry_digests(spec, jobs=2) != digests:
            raise SystemExit(
                f"{name}: jobs=2 telemetry disagrees with the serial run — "
                f"fix the capture merge before re-recording goldens")
        was = runs[name].get("digests")
        marker = ("unchanged" if was == digests
                  else "NEW" if was is None else "CHANGED")
        print(f"telemetry {name}: {digests['json'][:16]}... ({marker})")
        recorded[name] = dict(spec, digests=digests)
    out_path.write_text(json.dumps(
        {"comment": TELEMETRY_COMMENT, "format": TELEMETRY_FORMAT,
         "runs": recorded}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"wrote {out_path}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=str(GOLDENS_PATH),
                        help=f"golden file to rewrite "
                             f"(default: {GOLDENS_PATH})")
    parser.add_argument("--telemetry-out", default=str(TELEMETRY_PATH),
                        help=f"telemetry golden file to rewrite "
                             f"(default: {TELEMETRY_PATH})")
    args = parser.parse_args()

    out_path = pathlib.Path(args.out)
    # Overrides always come from the committed golden file, so writing
    # to a scratch --out path still reproduces the committed digests.
    previous = {}
    if GOLDENS_PATH.exists():
        document = json.loads(GOLDENS_PATH.read_text(encoding="utf-8"))
        if document.get("format") != GOLDENS_FORMAT:
            raise SystemExit(f"error: {GOLDENS_PATH} is not {GOLDENS_FORMAT}")
        previous = document["goldens"]

    registry = builtin_registry()
    goldens = {}
    for name in sorted(registry.names()):
        overrides = previous.get(name, {}).get("overrides", {})
        experiment = registry.get(name)
        serial = TrialExecutor(jobs=1).run(experiment, _tuplify(overrides))
        if not serial.ok:
            for failure in serial.failures:
                print(f"  FAILED {failure.describe()}", file=sys.stderr)
            raise SystemExit(f"{name} failed serially; no golden recorded")
        digest = result_digest(serial.result)
        sharded = TrialExecutor(jobs=2).run(experiment, _tuplify(overrides))
        if not sharded.ok or result_digest(sharded.result) != digest:
            raise SystemExit(
                f"{name}: jobs=2 run disagrees with the serial digest — "
                f"fix the runtime before re-recording goldens")
        was = previous.get(name, {}).get("digest")
        marker = ("unchanged" if was == digest
                  else "NEW" if was is None else "CHANGED")
        print(f"{name}: {digest[:16]}... ({marker})")
        goldens[name] = {"digest": digest, "overrides": overrides}

    dropped = sorted(set(previous) - set(goldens))
    for name in dropped:
        print(f"{name}: dropped (no longer registered)")

    out_path.write_text(json.dumps(
        {"comment": COMMENT, "format": GOLDENS_FORMAT, "goldens": goldens},
        indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out_path}")
    record_telemetry(pathlib.Path(args.telemetry_out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
