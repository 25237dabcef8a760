"""Telemetry must not retain per-query data in the population engine.

The engine's windowed latency series are fixed-bucket cells, so a
district's observability memory grows with windows and sites, never
with queries.  Measured with tracemalloc around one ``run_district``:
the peak with telemetry on (no spans, no tail exemplars) may exceed the
telemetry-off peak by far less than keeping both latencies of every
query would cost (a list slot and a float object each, about 64 bytes
a query, so some 640 KiB at 10^4 queries).
"""

import tracemalloc

from repro import telemetry
from repro.experiments.population import EXPERIMENT
from repro.workload.deployment import calibrate
from repro.workload.engine import district_seed, run_district

KEY = "mec-ldns-mec-cdns"
#: Allowed peak growth with telemetry on.
BUDGET_BYTES = 256 * 1024


def _peak_bytes(config, model, seed, tel):
    telemetry.set_default(tel)
    tracemalloc.start()
    try:
        stats = run_district(config, model, seed, scope=f"{KEY}/d0")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        telemetry.clear_default()
    return peak, stats


def test_telemetry_peak_does_not_grow_with_queries():
    params = EXPERIMENT.resolve_params(
        {"target_queries": 10_000, "districts": 1, "deployment": KEY})
    config = EXPERIMENT._config(params)
    model = calibrate(KEY, 42)
    seed = district_seed(42, KEY, 0)
    off, bare = _peak_bytes(config, model, seed, None)
    on, observed = _peak_bytes(
        config, model, seed,
        telemetry.Telemetry(trace_sample=0.0, window_ms=60000.0,
                            tail_capacity=0))
    assert observed.queries == bare.queries >= 9_000
    assert on - off < BUDGET_BYTES, (
        f"telemetry grew the district's peak by {(on - off) / 1024:.0f} KiB")
