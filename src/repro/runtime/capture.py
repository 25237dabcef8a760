"""Per-trial telemetry and wall-clock-profile capture, deterministic re-merge.

The ambient-telemetry flow (``repro.cli --trace-out/--metrics-out``)
hangs one :class:`~repro.telemetry.Telemetry` facade on every network a
run builds.  Under sharded execution that facade cannot be shared — a
worker process would mutate a fork-copied tracer nobody reads — and
even in-process it would make span numbering depend on completion
order.  So the executor gives **every trial its own fresh facade**
(serial and parallel alike), snapshots it when the trial ends, and
merges the snapshots into the session facade *after the barrier, in
spec order*.  Exported traces and metrics therefore come out
byte-identical for ``--jobs 1`` and ``--jobs N``.

A snapshot carries finished spans, the metrics registry, the windowed
time-series, the tail-exemplar reservoir, and a triple of engine
counters — all plain data that pickles cleanly; the tracer itself does
not (its clock is a lambda), which is exactly why snapshots exist.

The same begin/snapshot/merge discipline covers **wall-clock profiles**
(``repro profile``): each trial optionally runs under its own
:class:`cProfile.Profile`, the raw stats table is snapshotted (it is
plain picklable data), and the per-trial tables are folded together
after the barrier in spec order — the cProfile analog of
``Tracer.absorb``.  Profiling observes the interpreter, never the
simulation: a trial's instruction stream, RNG draws, and simulated
clock are identical with the profiler on or off.
"""

from __future__ import annotations

import cProfile
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, cast

from repro import telemetry as _telemetry
from repro.telemetry import (MetricsRegistry, Span, TailReservoir, Telemetry,
                             TelemetryConfig, TimeSeries)

#: cProfile's function identity: ``(filename, lineno, funcname)``.
FuncKey = Tuple[str, int, str]
#: One caller's contribution: ``(callcount, primcalls, tottime, cumtime)``.
CallerStats = Tuple[int, int, float, float]
#: One function's row in the raw stats table, callers included.
FuncStats = Tuple[int, int, float, float, Dict[FuncKey, CallerStats]]
#: The whole raw table, as ``cProfile.Profile.stats`` lays it out.
ProfileStats = Dict[FuncKey, FuncStats]


class TelemetrySnapshot(NamedTuple):
    """One trial's telemetry output, detached from any clock."""

    spans: List[Span]
    dropped: int
    #: Spans head-sampling discarded in this trial (accounting only).
    sampled_out: int
    metrics: MetricsRegistry
    #: Windowed counters/latency aggregates on the simulated timeline.
    timeseries: TimeSeries
    #: Slowest-query exemplars retained by this trial.
    tail: TailReservoir
    #: ``(simulators, max queue high-water, events processed)`` read off
    #: the engine at trial end — plain ints, merged max/sum/sum.
    engine: Tuple[int, int, int]


def begin_trial_capture(
        config: Optional[TelemetryConfig]) -> Optional[Telemetry]:
    """Install a fresh ambient facade for one trial (or none at all).

    ``config`` is the session facade's :class:`TelemetryConfig` (or
    ``None`` for no capture): every trial facade must make the same
    sampling decisions and use the same window/reservoir layout as the
    session it merges into, so the executor ships the three-value config
    across the process boundary instead of the facade itself.

    Always *replaces* the ambient default — in a forked worker the
    inherited default is a dead copy of the parent's facade and must
    never collect anything.
    """
    facade = (Telemetry.from_config(config)
              if config is not None else None)
    _telemetry.set_default(facade)
    return facade


def end_trial_capture(
        facade: Optional[Telemetry],
        restore: Optional[Telemetry] = None) -> Optional[TelemetrySnapshot]:
    """Snapshot ``facade`` and restore the previous ambient default."""
    _telemetry.set_default(restore)
    if facade is None:
        return None
    return TelemetrySnapshot(spans=list(facade.tracer.finished),
                             dropped=facade.tracer.dropped,
                             sampled_out=facade.tracer.sampled_out,
                             metrics=facade.metrics,
                             timeseries=facade.timeseries,
                             tail=facade.tail,
                             engine=facade.engine_stats())


def merge_snapshot(session: Telemetry,
                   snapshot: Optional[TelemetrySnapshot]) -> None:
    """Fold one trial's snapshot into the session facade.

    Span and trace ids are remapped past the session tracer's
    high-water mark (`Tracer.absorb`), so per-trial id spaces
    concatenate identically regardless of which backend produced them.
    Time-series windows add cell-wise and tail reservoirs merge under
    their strict total order — both merge-order independent, but folded
    in spec order anyway, same as everything else.
    """
    if snapshot is None:
        return
    session.tracer.absorb(snapshot.spans)
    session.tracer.dropped += snapshot.dropped
    session.tracer.sampled_out += snapshot.sampled_out
    session.metrics.merge_from(snapshot.metrics)
    session.timeseries.merge_from(snapshot.timeseries)
    session.tail.merge(snapshot.tail)


# -- wall-clock profile capture ---------------------------------------------------


def begin_profile_capture(enabled: bool) -> Optional[cProfile.Profile]:
    """Start a fresh per-trial profiler, or nothing at all.

    Kept symmetric with :func:`begin_trial_capture`: the executor calls
    both at trial entry, and a disabled capture costs a ``None`` check.
    """
    if not enabled:
        return None
    profiler = cProfile.Profile()
    profiler.enable()
    return profiler


def end_profile_capture(
        profiler: Optional[cProfile.Profile]) -> Optional[ProfileStats]:
    """Stop ``profiler`` and return its raw stats table (picklable data)."""
    if profiler is None:
        return None
    profiler.disable()
    profiler.create_stats()
    # ``Profile.stats`` is set by create_stats(); it is exactly the
    # ProfileStats shape but typeshed does not declare the attribute.
    return cast(ProfileStats, getattr(profiler, "stats"))


def merge_profile_stats(
        tables: Sequence[Optional[ProfileStats]]) -> Optional[ProfileStats]:
    """Fold per-trial stats tables together, in the order given.

    Addition of stats rows is what ``pstats.Stats.add`` does; doing it
    here on the raw tables keeps the merge picklable-in, picklable-out
    and independent of which worker produced each table.  Returns
    ``None`` when no table was captured at all.
    """
    merged: Optional[ProfileStats] = None
    for table in tables:
        if table is None:
            continue
        if merged is None:
            merged = {}
        for func, (cc, nc, tt, ct, callers) in table.items():
            have = merged.get(func)
            if have is None:
                merged[func] = (cc, nc, tt, ct, dict(callers))
                continue
            merged_callers = dict(have[4])
            for caller, row in callers.items():
                prior = merged_callers.get(caller)
                merged_callers[caller] = (row if prior is None else
                                          (prior[0] + row[0],
                                           prior[1] + row[1],
                                           prior[2] + row[2],
                                           prior[3] + row[3]))
            merged[func] = (have[0] + cc, have[1] + nc, have[2] + tt,
                            have[3] + ct, merged_callers)
    return merged
