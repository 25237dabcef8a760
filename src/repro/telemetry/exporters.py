"""Serialize spans and metrics to interoperable formats.

Three exporters:

* :func:`to_prometheus_text` — the Prometheus text exposition format
  (``# HELP``/``# TYPE`` headers, ``_bucket``/``_sum``/``_count``
  histogram series) so a run's counters drop straight into promtool or
  a textfile collector.
* :func:`to_chrome_trace` — Chrome ``trace_event`` JSON ("X" complete
  events, microsecond timestamps); load the file in ``about:tracing``
  or https://ui.perfetto.dev to see every query as a flame chart laid
  out per host.
* :func:`to_json_artifact` — a stable JSON document combining metric
  samples and span summaries, written next to experiment output so CI
  can upload it as a build artifact.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

from repro.telemetry.metrics import (Counter, Gauge, Histogram,
                                     MetricsRegistry)
from repro.telemetry.trace import Span

_US_PER_MS = 1000.0


# -- Prometheus text format --------------------------------------------------------


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _render_labels(pairs: Iterable[tuple]) -> str:
    rendered = ",".join(f'{key}="{_escape_label(value)}"'
                        for key, value in pairs)
    return f"{{{rendered}}}" if rendered else ""


def _render_exemplar(pairs: Iterable[tuple], value: float) -> str:
    """An OpenMetrics exemplar suffix: `` # {labels} value``.

    Unlike :func:`_render_labels`, the braces are mandatory even with no
    labels — the ``#`` marker introduces a label set, not a comment.
    """
    rendered = ",".join(f'{key}="{_escape_label(label)}"'
                        for key, label in pairs)
    return f" # {{{rendered}}} {_format_value(value)}"


def to_prometheus_text(registry: MetricsRegistry) -> str:
    """Render every instrument in the Prometheus text exposition format.

    Histogram buckets that captured an exemplar carry the OpenMetrics
    suffix (`` # {trace_id="17"} 12.4``), linking the bucket straight to
    a trace in the matching ``--trace-out`` file; plain Prometheus
    parsers that predate OpenMetrics treat the suffix as a comment.
    """
    lines: List[str] = []
    for instrument in registry.instruments():
        name = instrument.name
        lines.append(f"# HELP {name} {instrument.help}")
        lines.append(f"# TYPE {name} {instrument.kind}")
        if isinstance(instrument, (Counter, Gauge)):
            for key, value in instrument.samples():
                lines.append(
                    f"{name}{_render_labels(key)} {_format_value(value)}")
        elif isinstance(instrument, Histogram):
            for key, sample in instrument.samples():
                exemplars = instrument.exemplars(**dict(key))
                for index, (bound, running) in enumerate(
                        sample.cumulative()):
                    bucket_pairs = list(key) + [("le", _format_value(bound))]
                    line = (f"{name}_bucket{_render_labels(bucket_pairs)}"
                            f" {running}")
                    exemplar = exemplars.get(index)
                    if exemplar is not None:
                        line += _render_exemplar(exemplar[0], exemplar[1])
                    lines.append(line)
                lines.append(f"{name}_sum{_render_labels(key)} "
                             f"{_format_value(sample.total)}")
                lines.append(f"{name}_count{_render_labels(key)} "
                             f"{sample.count}")
    return "\n".join(lines) + "\n" if lines else ""


# -- Chrome trace_event JSON -------------------------------------------------------


def to_chrome_trace(spans: Iterable[Span],
                    process_name: str = "repro-mec-cdn") -> Dict[str, Any]:
    """Build a Chrome ``trace_event`` document from finished spans.

    Each distinct span track (host or link name) becomes one "thread" so
    the viewer lays traces out per simulated host; simulated
    milliseconds become trace microseconds.  Parent → child links that
    *cross tracks* (a stub attempt spawning a transit hop, a query
    landing on another host's server span) additionally emit flow
    events (``ph: "s"``/``"f"``), so Perfetto draws the causality
    arrows between hosts instead of leaving cross-track children
    orphaned.
    """
    events: List[Dict[str, Any]] = [{
        "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
        "args": {"name": process_name},
    }]
    tids: Dict[str, int] = {}
    by_id: Dict[int, Span] = {}
    finished: List[Span] = []
    span_events: List[Dict[str, Any]] = []
    for span in spans:
        if span.end_ms is None:
            continue
        finished.append(span)
        by_id[span.span_id] = span
        tid = tids.get(span.track)
        if tid is None:
            tid = tids[span.track] = len(tids) + 1
            events.append({
                "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                "args": {"name": span.track},
            })
        args: Dict[str, Any] = {"trace_id": span.trace_id,
                                "span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        args.update(span.attrs)
        span_events.append({
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "pid": 1,
            "tid": tid,
            "ts": span.start_ms * _US_PER_MS,
            "dur": (span.end_ms - span.start_ms) * _US_PER_MS,
            "args": args,
        })
    span_events.sort(key=lambda event: (event["ts"], event["tid"]))
    flow_events: List[Dict[str, Any]] = []
    for span in finished:
        parent = (by_id.get(span.parent_id)
                  if span.parent_id is not None else None)
        if parent is None or parent.track == span.track:
            continue
        # One flow per cross-track edge, id'd by the child span: an "s"
        # (start) on the parent's track, an "f" (finish, binding to the
        # enclosing slice) on the child's, both at the child's start.
        common = {"name": f"{parent.name} -> {span.name}", "cat": "flow",
                  "pid": 1, "ts": span.start_ms * _US_PER_MS,
                  "id": span.span_id}
        flow_events.append({**common, "ph": "s",
                            "tid": tids[parent.track]})
        flow_events.append({**common, "ph": "f", "bp": "e",
                            "tid": tids[span.track]})
    # "s" sorts before "f" at equal (ts, id), keeping each pair ordered.
    flow_events.sort(key=lambda event: (event["ts"], event["id"],
                                        0 if event["ph"] == "s" else 1))
    return {"traceEvents": events + span_events + flow_events,
            "displayTimeUnit": "ms",
            "otherData": {"clock": "simulated", "time_unit_in": "ms"}}


def write_chrome_trace(spans: Iterable[Span], path: str,
                       process_name: str = "repro-mec-cdn") -> None:
    """Serialize :func:`to_chrome_trace` output to ``path``."""
    document = to_chrome_trace(spans, process_name=process_name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")


# -- JSON artifact -----------------------------------------------------------------


def _jsonable(value: float) -> Any:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return value


def to_json_artifact(registry: MetricsRegistry,
                     spans: Optional[Iterable[Span]] = None,
                     meta: Optional[Dict[str, Any]] = None,
                     timeseries: Optional[Any] = None,
                     tail: Optional[Any] = None) -> Dict[str, Any]:
    """A stable JSON document of metric samples plus span roll-ups.

    ``timeseries`` (a :class:`~repro.telemetry.timeseries.TimeSeries`)
    embeds its ``repro-timeseries-v1`` document under ``"timeseries"``;
    ``tail`` (a :class:`~repro.telemetry.sampling.TailReservoir`) lists
    its slowest-query exemplars under ``"exemplars"``, slowest first.
    Both sections are pure simulated-time data; anything wall-clock
    (executor chunk timings) belongs in ``meta``, which byte-equality
    checks strip before comparing.
    """
    metrics: List[Dict[str, Any]] = []
    for instrument in registry.instruments():
        entry: Dict[str, Any] = {"name": instrument.name,
                                 "kind": instrument.kind,
                                 "help": instrument.help}
        if isinstance(instrument, (Counter, Gauge)):
            entry["samples"] = [{"labels": dict(key), "value": value}
                                for key, value in instrument.samples()]
        elif isinstance(instrument, Histogram):
            entry["samples"] = [{
                "labels": dict(key),
                "count": sample.count,
                "sum": sample.total,
                "buckets": [{"le": _jsonable(bound), "count": cumulative}
                            for bound, cumulative in sample.cumulative()],
            } for key, sample in instrument.samples()]
        metrics.append(entry)

    document: Dict[str, Any] = {"format": "repro-telemetry-v1",
                                "metrics": metrics}
    if meta:
        document["meta"] = dict(meta)
    if timeseries is not None and not timeseries.empty:
        document["timeseries"] = timeseries.to_dict()
    if tail is not None and len(tail):
        document["exemplars"] = [exemplar.to_dict()
                                 for exemplar in tail.items()]
    if spans is not None:
        by_name: Dict[tuple, Dict[str, Any]] = {}
        n_spans = 0
        trace_ids = set()
        for span in spans:
            if span.end_ms is None:
                continue
            n_spans += 1
            trace_ids.add(span.trace_id)
            key = (span.category, span.name)
            summary = by_name.get(key)
            if summary is None:
                summary = by_name[key] = {"category": span.category,
                                          "name": span.name, "count": 0,
                                          "total_ms": 0.0}
            summary["count"] += 1
            summary["total_ms"] += span.end_ms - span.start_ms
        document["spans"] = {
            "count": n_spans,
            "traces": len(trace_ids),
            "by_name": [by_name[key] for key in sorted(by_name)],
        }
    return document


def write_json_artifact(registry: MetricsRegistry, path: str,
                        spans: Optional[Iterable[Span]] = None,
                        meta: Optional[Dict[str, Any]] = None,
                        timeseries: Optional[Any] = None,
                        tail: Optional[Any] = None) -> None:
    """Serialize :func:`to_json_artifact` output to ``path``."""
    document = to_json_artifact(registry, spans=spans, meta=meta,
                                timeseries=timeseries, tail=tail)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_prometheus_text(registry: MetricsRegistry, path: str) -> None:
    """Serialize :func:`to_prometheus_text` output to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_prometheus_text(registry))
