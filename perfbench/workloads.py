"""The benchmark's workloads: which experiment, at what size.

Why each workload exists is in ``BENCHMARK.json`` and the README.

Each workload is one registered ``repro`` experiment with fixed
parameter overrides; the benchmark's ``--seed`` goes to the
experiment's ``seed`` parameter.  ``queries`` counts the simulated
client queries one run completes, from its merged result.
"""

from __future__ import annotations

import os
import re
from typing import Any, Callable, Dict, NamedTuple, Optional, Pattern, Tuple


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class Workload(NamedTuple):
    name: str
    experiment: str
    #: Parameter overrides besides ``seed``.
    params: Dict[str, object]
    #: Whether the timed run shards trials over ``nproc()`` workers
    #: (traced and verification runs are always serial).
    sharded: bool
    #: ``repro.telemetry.Telemetry`` keyword arguments, or ``None`` for
    #: telemetry off.
    telemetry: Optional[Dict[str, float]]
    #: Simulated client queries in one run's merged result.
    queries: Callable[[Any], int]


def _testbed_queries(result: Any) -> int:
    # measure_deployment_queries runs one warm-up lookup per bar before
    # the measured ones.
    return len(result.rows) * (result.queries + 1)


def _flood_queries(result: Any) -> int:
    return sum(point.sent for point in result.points)


def _population_queries(result: Any) -> int:
    return sum(row.queries for row in result.rows)


WORKLOADS: Dict[str, Workload] = {
    "testbed": Workload(
        "testbed", "figure5", {"queries": 1000}, sharded=False, telemetry=None,
        queries=_testbed_queries),
    "flood": Workload(
        "flood", "capacity", {}, sharded=False, telemetry=None,
        queries=_flood_queries),
    "population": Workload(
        "population", "population", {"target_queries": 100_000}, sharded=True,
        telemetry={"trace_sample": 0.05, "window_ms": 300_000.0},
        queries=_population_queries),
}

#: A seed kept out of tuning, for re-checking later claims on.
HELD_OUT_SEED = 7

#: ``result_digest`` of each workload's merged result at known seeds
#: (flood's model has no random draw, so every seed gives one digest).
PINNED_DIGESTS: Dict[str, Dict[int, str]] = {
    "testbed": {
        42: "628fa62f757a3b706917a001be3893807b5e0eb7a858f2d1687eacd764707d57",
        7: "b1aa89d55d6c2999675ac445cd3bc16ca77673fc35d423624b297c343245b5db",
    },
    "flood": {
        42: "6d280168f27f5bb833473abad0c652a6c0d45daa1094735427c60c063708d44b",
        7: "6d280168f27f5bb833473abad0c652a6c0d45daa1094735427c60c063708d44b",
    },
    "population": {
        42: "27f376fd9e80543030e26818feb1a2c4ac0e1ca589f2679e244e2be06f85f91e",
        7: "29eba9effbdf6a41015da34e16c48c06dc3ade18be9f899cb98701a8fc919304",
    },
}

#: Shape claims that miss at some seeds on an unchanged program, so a
#: miss is reported (standard error and the result record), not failed.
#: population: the DNS p50 of a row is the geometric midpoint of its
#: histogram bin, and the bin covering 19.6-21.1 ms reads 20.3 ms, so
#: "MEC L-DNS w/ LAN C-DNS p50 under 20 ms" misses whenever that
#: deployment's 48-query calibration puts its median above 19.6 ms:
#: seeds 5, 10 and 12 of 0-20 at the sizes above.
SEED_FRAGILE_CLAIMS: Dict[str, Tuple[Pattern[str], ...]] = {
    "population": (re.compile(
        r"mec-ldns-lan-cdns dns p50 \d+\.\dms misses the 20ms envelope"),),
}
