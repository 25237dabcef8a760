"""Round-trip tests for the telemetry exporters.

Pins the details downstream consumers rely on: Prometheus bucket
cumulation and label escaping, ``+Inf`` handling in both text and JSON
output, and the Chrome flow events that stitch cross-track parentage.
"""

import json

from repro.telemetry.exporters import (to_chrome_trace, to_json_artifact,
                                       to_prometheus_text)
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import Tracer


def _registry():
    registry = MetricsRegistry()
    counter = registry.counter("repro_test_total", "test counter")
    counter.inc(3, path='a\\b"c', note="two\nlines")
    registry.gauge("repro_test_depth", "test gauge").set(7, host="h1")
    histogram = registry.histogram("repro_test_ms", "test histogram")
    for value in (0.5, 1.5, 99.0):
        histogram.observe(value, deployment="d1")
    return registry


class TestPrometheusText:
    def test_histogram_buckets_cumulate(self):
        text = to_prometheus_text(_registry())
        assert 'repro_test_ms_bucket{deployment="d1",le="1"} 1' in text
        assert 'repro_test_ms_bucket{deployment="d1",le="2"} 2' in text
        # The overflow bucket renders the Prometheus spelling of inf and
        # counts every observation.
        assert 'repro_test_ms_bucket{deployment="d1",le="+Inf"} 3' in text
        assert 'repro_test_ms_sum{deployment="d1"} 101' in text
        assert 'repro_test_ms_count{deployment="d1"} 3' in text

    def test_label_escaping(self):
        text = to_prometheus_text(_registry())
        # Backslash, quote, and newline all escape per the exposition
        # format; the raw newline must never reach the output line.
        assert 'path="a\\\\b\\"c"' in text
        assert 'note="two\\nlines"' in text
        # The raw newline never reaches the output: the whole sample
        # stays one exposition line.
        sample_lines = [line for line in text.splitlines()
                        if line.startswith("repro_test_total{")]
        assert len(sample_lines) == 1
        assert sample_lines[0].endswith(" 3")

    def test_help_and_type_headers(self):
        text = to_prometheus_text(_registry())
        assert "# HELP repro_test_ms test histogram" in text
        assert "# TYPE repro_test_ms histogram" in text
        assert "# TYPE repro_test_total counter" in text
        assert "# TYPE repro_test_depth gauge" in text


class TestJsonArtifact:
    def test_document_round_trips_through_json(self):
        tracer = Tracer()
        root = tracer.add("lookup", "measure", "driver", 0.0, 4.0)
        tracer.add("transit", "net", "wire", 1.0, 3.0, parent=root)
        document = to_json_artifact(_registry(), spans=tracer.finished,
                                    meta={"experiment": "toy"})
        assert document == json.loads(json.dumps(document))

        assert document["format"] == "repro-telemetry-v1"
        assert document["meta"] == {"experiment": "toy"}
        by_name = {metric["name"]: metric for metric in document["metrics"]}
        sample = by_name["repro_test_ms"]["samples"][0]
        assert sample["count"] == 3 and sample["sum"] == 101.0
        assert [bucket["count"] for bucket in sample["buckets"]] == [
            1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3]
        assert sample["buckets"][-1]["le"] == "+Inf"
        assert by_name["repro_test_total"]["samples"][0]["value"] == 3.0

    def test_span_rollup(self):
        tracer = Tracer()
        root = tracer.add("lookup", "measure", "driver", 0.0, 4.0)
        tracer.add("transit", "net", "wire", 1.0, 2.0, parent=root)
        tracer.add("transit", "net", "wire", 2.0, 3.5, parent=root)
        document = to_json_artifact(MetricsRegistry(),
                                    spans=tracer.finished)
        rollup = document["spans"]
        assert rollup["count"] == 3 and rollup["traces"] == 1
        names = [entry["name"] for entry in rollup["by_name"]]
        assert names == sorted(names)
        transit = [entry for entry in rollup["by_name"]
                   if entry["name"] == "transit"][0]
        assert transit["count"] == 2 and transit["total_ms"] == 2.5


def _cross_track_trace():
    tracer = Tracer()
    root = tracer.add("lookup", "measure", "driver", 0.0, 10.0)
    stub = tracer.add("stub.query", "resolver", "ue-1", 0.0, 10.0,
                      parent=root)
    hop = tracer.add("transit", "net", "wire-1", 1.0, 3.0, parent=stub)
    # Same-track child: no flow arrow needed, nesting already shows it.
    tracer.add("stub.attempt", "resolver", "ue-1", 0.5, 9.5, parent=stub)
    return tracer, root, stub, hop


class TestChromeFlowEvents:
    def flows(self, document):
        return [event for event in document["traceEvents"]
                if event.get("cat") == "flow"]

    def test_cross_track_edges_emit_flow_pairs(self):
        tracer, root, stub, hop = _cross_track_trace()
        document = to_chrome_trace(tracer.finished)
        flows = self.flows(document)
        # Two cross-track edges (lookup -> stub.query, stub.query ->
        # transit), one s/f pair each; the same-track stub.attempt adds
        # none.
        assert sorted(event["ph"] for event in flows) == ["f", "f", "s", "s"]
        by_id = {}
        for event in flows:
            by_id.setdefault(event["id"], []).append(event)
        assert set(by_id) == {stub.span_id, hop.span_id}
        tids = {event["args"]["name"]: event["tid"]
                for event in document["traceEvents"]
                if event.get("name") == "thread_name"}
        start, finish = by_id[hop.span_id]
        assert (start["ph"], finish["ph"]) == ("s", "f")
        assert start["ts"] == finish["ts"] == hop.start_ms * 1000.0
        assert start["tid"] == tids["ue-1"]       # parent's track
        assert finish["tid"] == tids["wire-1"]    # child's track
        assert finish["bp"] == "e" and "bp" not in start
        assert start["name"] == "stub.query -> transit"

    def test_flow_events_are_deterministic_and_ordered(self):
        tracer, _, _, _ = _cross_track_trace()
        once = to_chrome_trace(tracer.finished)
        twice = to_chrome_trace(tracer.finished)
        assert once == twice
        flows = self.flows(once)
        keys = [(event["ts"], event["id"], 0 if event["ph"] == "s" else 1)
                for event in flows]
        assert keys == sorted(keys)
        # Flows ride after the span events, so existing consumers that
        # index the head of traceEvents see exactly what they used to.
        kinds = [event["ph"] for event in once["traceEvents"]]
        assert kinds.index("s") > max(index for index, kind
                                      in enumerate(kinds) if kind == "X")

    def test_open_or_trackless_spans_emit_no_flows(self):
        tracer = Tracer()
        root = tracer.add("lookup", "measure", "driver", 0.0, 5.0)
        dangling = tracer.begin("stub.query", "resolver", "ue-1",
                                parent=root)
        assert dangling is not None and dangling.end_ms is None
        document = to_chrome_trace(tracer.finished)
        assert self.flows(document) == []
