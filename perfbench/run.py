"""The repository's benchmark: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload testbed --seed 42 --seconds 30 --trace 0

With ``--trace 0`` it repeats the workload in fresh interpreters
(``child.py``) for ``--seconds`` seconds and reports the end-to-end
metrics as medians over those runs.  With ``--trace 1`` it runs each
round's untraced run, then a serial traced run whose spans give the
per-layer metrics.  Every run's output is checked: no failed trial,
``check_shape`` clean, one ``result_digest`` for every run of the
invocation (and the pinned digest at pinned seeds).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a readable
summary goes to standard error, and the full record (provenance, every
run, medians with quartiles, spans) to ``perfbench/out/``.  The exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from workloads import (HELD_OUT_SEED, PINNED_DIGESTS, SEED_FRAGILE_CLAIMS,
                       WORKLOADS, Workload, nproc)

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

#: Every invocation ends within this many seconds of starting.
BUDGET_S = 170.0

#: Workloads, metric names and units: the benchmark's declaration.
SPEC_PATH = ROOT / "BENCHMARK.json"


def metric_units(kind: str) -> Tuple[Tuple[str, str], ...]:
    """``(name, unit)`` of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads(SPEC_PATH.read_text())
    return tuple((metric["name"], metric["unit"]) for metric in spec[kind])


class Session:
    """One invocation: starts children, keeps their reports, checks them."""

    def __init__(self, workload: Workload, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.perf_counter()
        self.reports: List[Dict[str, Any]] = []
        self.problems: List[str] = []
        #: Misses of claims listed in ``SEED_FRAGILE_CLAIMS``.
        self.notes: List[str] = []
        #: Trials attempted / failed, over every run (a run that fails
        #: its output check fails all of its trials).
        self.attempted = 0
        self.failed = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def child(self, mode: str, spans_out: Optional[pathlib.Path] = None,
              ) -> Optional[Dict[str, Any]]:
        """Run ``child.py`` once; its report, or ``None`` if it failed."""
        # Bytecode caching on, as for an installed package: only the
        # first run in a fresh checkout compiles ``repro``.
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        spawned_at = time.perf_counter()
        command = [sys.executable, str(BENCH / "child.py"),
                   "--workload", self.workload.name, "--seed", str(self.seed),
                   "--mode", mode, "--spawned-at", repr(spawned_at)]
        if spans_out is not None:
            command += ["--spans-out", str(spans_out)]
        process = subprocess.Popen(command, cwd=ROOT, env=env,
                                   stdout=subprocess.PIPE,
                                   stderr=subprocess.PIPE, text=True,
                                   start_new_session=True)
        try:
            stdout, stderr = process.communicate(
                timeout=max(1.0, BUDGET_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            stdout, stderr = "", f"{mode} run exceeded the time budget"
        finally:
            try:  # the child's pool workers, should any outlive it
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
        lines = stdout.strip().splitlines()
        if process.returncode != 0 or not lines:
            self.problems.append(f"{mode} run failed: "
                                 f"{stderr.strip()[-2000:]}")
            self.attempted += 1
            self.failed += 1
            return None
        report: Dict[str, Any] = json.loads(lines[-1])
        self._check(report)
        self.reports.append(report)
        return report

    def _check(self, report: Dict[str, Any]) -> None:
        """Output check of one run; books its trials."""
        fragile = SEED_FRAGILE_CLAIMS.get(self.workload.name, ())
        problems = [f"{report['mode']} run: {text}"
                    for text in report["failures"]]
        for text in report["violations"]:
            if any(claim.fullmatch(text) for claim in fragile):
                self.notes.append(f"{report['mode']} run: {text}")
            else:
                problems.append(f"{report['mode']} run: {text}")
        pinned = PINNED_DIGESTS.get(self.workload.name, {}).get(self.seed)
        if report["digest"] is None:
            problems.append(f"{report['mode']} run produced no result")
        elif pinned is not None and report["digest"] != pinned:
            problems.append(f"{report['mode']} run digest "
                            f"{report['digest'][:16]} != pinned "
                            f"{pinned[:16]}")
        elif self.reports and report["digest"] != self.reports[0]["digest"]:
            problems.append(f"{report['mode']} run digest "
                            f"{report['digest'][:16]} != first run's "
                            f"{self.reports[0]['digest'][:16]}")
        self.attempted += report["trials"]
        self.failed += report["trials"] if problems else report["failed"]
        self.problems.extend(problems)

    def more(self, rounds: Sequence[float]) -> bool:
        """Whether another round (of the durations seen so far) fits."""
        if not rounds:
            return True
        return self.elapsed() + statistics.median(rounds) <= self.seconds


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    ordered = sorted(values)
    if len(ordered) == 1:
        q1 = q3 = ordered[0]
    else:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    return {"median": statistics.median(ordered), "q1": q1, "q3": q3,
            "n": len(ordered)}


def measure_end_to_end(session: Session) -> Dict[str, Dict[str, float]]:
    """Timed runs for ``--seconds``, plus the serial verification pass."""
    durations: List[float] = []
    timed: List[Dict[str, Any]] = []
    while session.more(durations):
        began = session.elapsed()
        report = session.child("timed")
        if report is None:
            break
        timed.append(report)
        durations.append(session.elapsed() - began)
    if session.workload.sharded and timed:
        session.child("verify")
    samples = {
        "queries_per_s": [r["queries"] / r["wall_s"] for r in timed],
        "setup_s": [r["setup_s"] for r in timed],
        "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
    }
    stats = {name: quartiles(values) for name, values in samples.items()
             if values}
    ok = 1.0 - session.failed / max(1, session.attempted)
    stats["ok_frac"] = {"median": ok, "q1": ok, "q3": ok, "n": 1}
    return stats


def runtime_metrics(report: Dict[str, Any]) -> Dict[str, float]:
    """Executor metrics of one untraced run."""
    busy = sum(report["chunk_wall_s"])
    workers = report["workers"]
    wall = report["wall_s"]
    return {
        "runtime.trials": report["trials"],
        "runtime.chunks": len(report["chunk_wall_s"]),
        "runtime.trial_busy_s": busy,
        "runtime.worker_idle_frac": 1.0 - busy / (workers * wall),
        "runtime.overhead_s": wall - report["merge_s"] - busy / workers,
        "runtime.merge_s": report["merge_s"],
    }


def measure_layers(session: Session) -> Dict[str, Dict[str, float]]:
    """Rounds of (untraced run, serial base if sharded, traced run)."""
    durations: List[float] = []
    timed: List[Dict[str, Any]] = []
    bases: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    while session.more(durations):
        began = session.elapsed()
        run = session.child("timed")
        if run is None:
            break
        base = session.child("verify") if session.workload.sharded else run
        if base is None:
            break
        trace = session.child("traced", OUT / (
            f"spans-{session.workload.name}-seed{session.seed}"
            f"-round{len(traced)}.json"))
        if trace is None:
            break
        timed.append(run)
        bases.append(base)
        traced.append(trace)
        durations.append(session.elapsed() - began)
    if not traced:
        return {}
    # One traced run supplies every span metric, so its self times and
    # the unattributed rest add up to its wall time exactly: the run
    # whose wall time is the (lower) median.
    chosen = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
    typical = sorted(timed, key=lambda r: r["wall_s"])[(len(timed) - 1) // 2]
    base_wall = statistics.median(r["wall_s"] for r in bases)
    values: Dict[str, float] = dict(chosen["layers"])
    values.update(runtime_metrics(typical))
    values["trace.overhead_frac"] = chosen["wall_s"] / base_wall - 1.0
    values["trace.wall_s"] = chosen["wall_s"]
    return {name: {"median": value, "q1": value, "q3": value,
                   "n": len(traced)}
            for name, value in values.items()}


def provenance(workload: Workload, seed: int, seconds: float,
               trace: int) -> Dict[str, Any]:
    """What this result was: inputs, machine, interpreter, code."""
    revision = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            revision = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode())
        source.update(path.read_bytes())
    return {
        "workload": workload.name, "seed": seed,
        "held_out_seed": HELD_OUT_SEED, "experiment": workload.experiment,
        "seconds": seconds, "trace": trace,
        "cpu_count": os.cpu_count(), "nproc": nproc(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_revision": revision, "source_sha256": source.hexdigest(),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/repro to benchmark",
              file=sys.stderr)
        return 2
    if not SPEC_PATH.is_file():
        print(f"error: no {SPEC_PATH}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    wanted = metric_units("per_layer" if args.trace else "end_to_end")
    session = Session(workload, args.seed, args.seconds)
    stats = (measure_layers(session) if args.trace
             else measure_end_to_end(session))
    missing = [name for name, _ in wanted if name not in stats]
    if missing:
        session.problems.append(f"no value for {', '.join(missing)}")
    correct = not session.problems
    metrics = {name: {"value": stats[name]["median"], "unit": unit}
               for name, unit in wanted if name in stats}

    record = {
        "provenance": provenance(workload, args.seed, args.seconds,
                                 args.trace),
        "params": session.reports[0]["params"] if session.reports else None,
        "correct": correct, "problems": session.problems,
        "seed_fragile_misses": session.notes,
        "attempted": session.attempted, "failed": session.failed,
        "stats": stats, "runs": session.reports,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))

    for problem in session.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for note in sorted(set(session.notes)):
        print(f"seed-fragile claim missed (not a failure): {note}",
              file=sys.stderr)
    for name, unit in wanted:
        if name in stats:
            row = stats[name]
            spread = ((row["q3"] - row["q1"]) / row["median"]
                      if row["median"] else 0.0)
            print(f"{workload.name:10s} {name:32s} {row['median']:14.6g} "
                  f"{unit:6s} IQR/median {spread:6.1%}  runs {row['n']}",
                  file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": session.attempted,
                      "failed": session.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
