"""Latency-budget profiling: from raw spans to actionable verdicts.

A read-only consumer of :mod:`repro.telemetry` (the leaf of the layer
DAG — nothing in the simulation stack may import it), answering three
questions the raw spans cannot:

* **Where did the budget go?** — :mod:`repro.profile.criticalpath`
  attributes every simulated instant of a trace to a named stage
  (radio, backhaul, L-DNS cache, upstream recursion, C-DNS routing,
  TCP fallback), with stage sums float-identical to the trace
  duration; :mod:`repro.profile.budget` rolls that up per deployment.
* **What dominates?** — :mod:`repro.profile.profiler` builds
  deterministic inclusive/exclusive simulated-time profiles with
  text-table and collapsed-stack (flamegraph) exporters.
* **Is it good enough?** — :mod:`repro.profile.slo` evaluates
  declarative SLO rules (``mec-ldns-mec-cdns p99 resolve_ms < 20``)
  over budget/metrics artifacts, and :mod:`repro.profile.harness`
  (``repro profile``) measures the simulator's own wall-clock speed,
  seeding the ``BENCH_profile.json`` trajectory.

See ``docs/OBSERVABILITY.md`` ("From spans to answers") for the tour.
"""

from repro.profile.budget import (BudgetReport, BudgetRow, StageBudget,
                                  budget_report)
from repro.profile.criticalpath import (STAGE_BACKHAUL, STAGE_CDNS,
                                        STAGE_CLIENT, STAGE_LDNS_CACHE,
                                        STAGE_OTHER, STAGE_RADIO, STAGES,
                                        STAGE_TCP_FALLBACK, STAGE_UPSTREAM,
                                        CriticalPath, PathStep, Segment,
                                        analyze_trace, render_path,
                                        trace_segments)
from repro.profile.profiler import (ProfileEntry, collapsed_stacks,
                                    render_collapsed, render_profile,
                                    simulated_profile)
from repro.profile.slo import (BurnRateRule, SloCheck, SloParseError,
                               SloRule, SloVerdict, WindowRule,
                               evaluate_slo, parse_slo_text)

__all__ = [
    "STAGES",
    "STAGE_BACKHAUL",
    "STAGE_CDNS",
    "STAGE_CLIENT",
    "STAGE_LDNS_CACHE",
    "STAGE_OTHER",
    "STAGE_RADIO",
    "STAGE_TCP_FALLBACK",
    "STAGE_UPSTREAM",
    "BudgetReport",
    "BudgetRow",
    "CriticalPath",
    "PathStep",
    "ProfileEntry",
    "Segment",
    "BurnRateRule",
    "SloCheck",
    "SloParseError",
    "SloRule",
    "SloVerdict",
    "WindowRule",
    "StageBudget",
    "analyze_trace",
    "budget_report",
    "collapsed_stacks",
    "evaluate_slo",
    "parse_slo_text",
    "render_collapsed",
    "render_path",
    "render_profile",
    "simulated_profile",
    "trace_segments",
]
