"""One run of one workload in a fresh interpreter.

``run.py`` starts this script once per measured run, so every run pays
the import and set-up a ``repro experiment`` user pays, and starts with
cold module state (the dnswire encode memo included).  Modes:

* ``timed`` — the workload as configured (sharded if it is), untraced;
* ``verify`` — the same run serially, untraced (its digest must match);
* ``traced`` — serially, with every seam of ``layers.py`` wrapped.

Prints one JSON object as its last line of standard output.  The
parent passes its ``perf_counter`` reading taken just before starting
this process, so ``setup_s`` covers interpreter start, importing
``repro``, building the experiment registry and warming the pool.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
import time
from typing import Any, Dict

from layers import install, layer_metrics
from spans import Recorder
from workloads import WORKLOADS, nproc

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _import_repro() -> None:
    """Import ``repro`` from this checkout's ``src``, and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro package under {src}")
    sys.path.insert(0, str(src))
    import repro
    if pathlib.Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"error: imported repro from {repro.__file__}")


def _peak_rss_mb() -> float:
    """Peak RSS of this process or its largest reaped child (pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("timed", "verify", "traced"))
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans-out", type=pathlib.Path)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    _import_repro()
    from repro import telemetry
    from repro.experiments.registry import builtin_registry
    from repro.runtime import (TrialExecutor, jsonify, result_digest,
                               shutdown_worker_pool, warm_worker_pool)

    experiment = builtin_registry().get(workload.experiment)
    jobs = nproc() if workload.sharded and args.mode == "timed" else 1
    if jobs > 1:
        warm_worker_pool(jobs)
    setup_s = time.perf_counter() - args.spawned_at

    # ``merge`` runs once per run, in this process; timing it costs two
    # clock reads.  Patched on the class, which never crosses to workers.
    experiment_class = type(experiment)
    merge = experiment_class.merge
    merge_s = [0.0]

    def timed_merge(*merge_args: Any) -> Any:
        started = time.perf_counter()
        try:
            return merge(*merge_args)
        finally:
            merge_s[0] += time.perf_counter() - started
    experiment_class.merge = timed_merge  # type: ignore[method-assign]

    recorder = undo = None
    if args.mode == "traced":
        recorder = Recorder()
        undo = install(recorder, experiment_class)
    if workload.telemetry is not None:
        telemetry.set_default(telemetry.Telemetry(**workload.telemetry))
    overrides: Dict[str, object] = dict(workload.params, seed=args.seed)

    started = time.perf_counter()
    run = TrialExecutor(jobs=jobs).run(experiment, overrides)
    wall_s = time.perf_counter() - started

    telemetry.clear_default()
    if undo is not None:
        undo()
    experiment_class.merge = merge  # type: ignore[method-assign]
    shutdown_worker_pool()

    ok = run.result is not None and not run.failures
    stats = run.executor_stats
    report: Dict[str, Any] = {
        "mode": args.mode,
        "jobs": jobs,
        "params": jsonify(dict(run.params)),
        "trials": len(run.outcomes),
        "failed": len(run.failures),
        "failures": [failure.describe() for failure in run.failures],
        "digest": result_digest(run.result) if ok else None,
        "violations": experiment.check_shape(run.result) if ok else [],
        "queries": workload.queries(run.result) if ok else 0,
        "wall_s": wall_s,
        "setup_s": setup_s,
        "merge_s": merge_s[0],
        "peak_rss_mb": _peak_rss_mb(),
        "workers": stats.workers if stats is not None else 1,
        "chunk_wall_s": ([chunk.wall_ms / 1000.0 for chunk in stats.chunks]
                         if stats is not None else []),
    }
    if recorder is not None:
        report["layers"] = layer_metrics(recorder, wall_s)
        if args.spans_out is not None:
            args.spans_out.parent.mkdir(parents=True, exist_ok=True)
            args.spans_out.write_text(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "wall_s": wall_s,
                "span_fields": ["name", "start_s", "end_s", "parent",
                                "request"],
                "spans": [[name, start - started, end - started, parent,
                           request]
                          for name, start, end, parent, request
                          in recorder.kept],
                "aggregated": recorder.table(),
                "counts": recorder.counts,
            }))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
