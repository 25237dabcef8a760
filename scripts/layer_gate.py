#!/usr/bin/env python
"""Gate perfbench's traced per-layer counts against their committed values.

    python3 perfbench/run.py --workload population --seed 42 --seconds 30 --trace 1
    python3 scripts/layer_gate.py perf/LAYER_COUNTS.json \\
        perfbench/out/population-seed42-trace1.json

A record's provenance names its workload and seed.  Each count and ratio
metric of ``BENCHMARK.json`` but the three the host sets (``EXCLUDED``)
must equal its committed value exactly; a difference fails, naming the
metric and its layer, as a regression or (by the metric's ``better``) an
improvement.  Improvements fail too: re-record the file, or a later
regression back to the old value would pass.  A population record from
two or more CPUs must also show trial-busy seconds per wall second,
``nproc × (1 − runtime.worker_idle_frac)``, above ``DISPATCH_FLOOR``; a
pool working on one process delivers at most 1.0.
"""
import json
import pathlib
import sys

SPEC = pathlib.Path(__file__).resolve().parents[1] / "BENCHMARK.json"

#: Set by the host, not the program: the chunk count follows the worker
#: count, and the two fractions follow wall time.
EXCLUDED = {"runtime.chunks", "runtime.worker_idle_frac", "trace.overhead_frac"}

#: Trial-busy seconds per wall second the sharded population run must
#: exceed; CHANGES.md records the runs it was derived from.
DISPATCH_FLOOR = 1.3


def check(record: dict, committed: dict, better: dict) -> list:
    """Every difference between one record and the committed values."""
    origin, stats = record["provenance"], record["stats"]
    label = f"{origin['workload']} seed {origin['seed']}"
    expected = committed.get(origin["workload"], {}).get(str(origin["seed"]))
    if expected is None:
        return [f"{label}: no committed counts"]
    problems = []
    for name in sorted(better):
        where = f"{label}: {name} (layer {name.split('.')[0]})"
        if name not in expected or name not in stats:
            side = "committed file" if name in stats else "record"
            problems.append(f"{where} missing from the {side}")
        elif stats[name]["median"] != expected[name]:
            was, now = expected[name], stats[name]["median"]
            worse = (now > was) == (better[name] == "lower")
            problems.append(f"{where} {was} -> {now}: " + (
                "regression" if worse else "improvement, re-record "
                "perf/LAYER_COUNTS.json and give the reason in CHANGES.md"))
    if origin["workload"] == "population" and origin["nproc"] >= 2:
        idle = stats["runtime.worker_idle_frac"]["median"]
        busy = origin["nproc"] * (1.0 - idle)
        if busy <= DISPATCH_FLOOR:
            problems.append(f"{label}: runtime.worker_idle_frac (layer runtime) "
                            f"{idle:.3f} is {busy:.2f} trial-busy s per wall s "
                            f"on {origin['nproc']} CPUs, not above {DISPATCH_FLOOR}")
    return problems


def main(paths: list) -> int:
    if len(paths) < 2:
        raise SystemExit("usage: layer_gate.py LAYER_COUNTS.json RECORD.json...")
    committed = json.loads(pathlib.Path(paths[0]).read_text())
    better = {metric["name"]: metric["better"]
              for metric in json.loads(SPEC.read_text())["per_layer"]
              if metric["unit"] in ("count", "ratio")
              and metric["name"] not in EXCLUDED}
    problems = [problem for path in paths[1:] for problem in check(
        json.loads(pathlib.Path(path).read_text()), committed, better)]
    for problem in problems:
        print(f"FAIL {problem}")
    print(f"layer_gate: {len(paths) - 1} record(s), {len(better)} pinned "
          f"metrics each, {len(problems)} failure(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
