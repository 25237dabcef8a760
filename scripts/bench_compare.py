#!/usr/bin/env python
"""Compare a fresh ``repro profile`` bench document against a baseline.

The perf-trajectory gate for ``repro-bench-profile-v1`` documents,
written by ``repro profile <experiment>``::

    PYTHONPATH=src python -m repro.cli profile figure5 --out-dir out
    python scripts/bench_compare.py out/BENCH_profile.json \
        --baseline BENCH_profile.json [--tolerance 1.3] [--strict]

Gates wall time (above ``tolerance ×`` baseline) and event throughput
(below ``baseline / tolerance``).  With ``--min-speedup N`` the current
document must additionally show ``events_per_s >= N ×`` baseline —
point it at a frozen pre-optimisation baseline (see ``perf/``) to
assert a speedup has not been lost.

Wall-clock numbers are noisy across machines and CI runners, so the
default mode only **warns** on regression (exit 0); ``--strict`` turns
a regression into exit 1 for environments stable enough to gate on.
Deterministic counters (events, spans, traces, digests) are reported
when they drift — a change there is a behaviour change, not noise —
but never gated on, because growing the simulation is usually the
point of a PR.
"""
from __future__ import annotations

import argparse
import json
import sys

PROFILE_FORMAT = "repro-bench-profile-v1"


def _load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot load {path}: {exc}")
    if not isinstance(document, dict) or document.get("format") != PROFILE_FORMAT:
        raise SystemExit(f"error: {path} is not a {PROFILE_FORMAT} document")
    return document


def _compare_profile(current: dict, baseline: dict, tolerance: float,
                     min_speedup: float) -> list:
    if current.get("experiment") != baseline.get("experiment"):
        raise SystemExit(
            f"error: experiment mismatch: current profiles "
            f"{current.get('experiment')!r}, baseline "
            f"{baseline.get('experiment')!r}")

    regressions = []
    wall_now = float(current.get("wall_s", 0.0))
    wall_base = float(baseline.get("wall_s", 0.0))
    print(f"wall_s:       {wall_now:.3f} now vs {wall_base:.3f} baseline "
          f"(x{wall_now / wall_base:.2f})" if wall_base else
          f"wall_s:       {wall_now:.3f} now (no baseline value)")
    if wall_base and wall_now > wall_base * tolerance:
        regressions.append(
            f"wall_s {wall_now:.3f} exceeds {tolerance:.2f}x baseline "
            f"{wall_base:.3f}")

    eps_now = float(current.get("events_per_s", 0.0))
    eps_base = float(baseline.get("events_per_s", 0.0))
    print(f"events_per_s: {eps_now:.0f} now vs {eps_base:.0f} baseline"
          if eps_base else f"events_per_s: {eps_now:.0f} now")
    if eps_base and eps_now < eps_base / tolerance:
        regressions.append(
            f"events_per_s {eps_now:.0f} below baseline {eps_base:.0f} / "
            f"{tolerance:.2f}")
    if min_speedup and eps_base:
        ratio = eps_now / eps_base
        print(f"speedup:      x{ratio:.2f} vs baseline "
              f"(required >= x{min_speedup:.2f})")
        if ratio < min_speedup:
            regressions.append(
                f"events_per_s speedup x{ratio:.2f} below required "
                f"x{min_speedup:.2f} over baseline {eps_base:.0f}")

    for counter in ("events", "spans", "traces", "simulators",
                    "max_heap_depth"):
        now, base = current.get(counter), baseline.get(counter)
        if now != base:
            print(f"note: {counter} changed: {base} -> {now} "
                  f"(behaviour change, not gated)")
    return regressions


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", help="freshly produced bench document")
    parser.add_argument("--baseline", default="BENCH_profile.json",
                        help="committed baseline document "
                             "(default: BENCH_profile.json)")
    parser.add_argument("--tolerance", type=float, default=1.3,
                        help="allowed slowdown factor before a regression "
                             "is declared (default: 1.3)")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="require events_per_s >= N x baseline "
                             "(default: off)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 on regression instead of warning")
    args = parser.parse_args()
    if args.tolerance < 1.0:
        parser.error("--tolerance must be >= 1.0")
    if args.min_speedup < 0.0:
        parser.error("--min-speedup must be >= 0")

    regressions = _compare_profile(_load(args.current),
                                   _load(args.baseline), args.tolerance,
                                   args.min_speedup)

    if not regressions:
        print("bench_compare: OK — within tolerance")
        return 0
    for regression in regressions:
        print(f"{'REGRESSION' if args.strict else 'warning'}: {regression}")
    if args.strict:
        return 1
    print("bench_compare: regression warnings only (pass --strict to gate)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
