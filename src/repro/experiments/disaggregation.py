"""§2 observation 2 quantified: request disaggregation raises miss rates.

The paper, after Figure 3: "although clients send requests from a similar
geo-location, they are not guaranteed to access the content from the same
set of cache servers.  This also leads to disaggregation of requests and
may increase the cache miss rate."

This experiment replays one Zipf request stream under two routings:

* **aggregated** — every request lands on one edge cache group (what a
  MEC-CDN with a pinned edge gives you);
* **disaggregated** — each request is scattered across N independent
  cache groups with Figure 3-style probabilities, so each group sees a
  thinned copy of the popularity curve.

Same content, same demand, same total cache capacity — the only change is
answer stability, and the aggregate hit ratio drops measurably.
"""

from __future__ import annotations

from typing import List, NamedTuple

from repro.cdn.cache_server import CacheServer
from repro.cdn.content import ContentCatalog, ZipfWorkload
from repro.cdn.httpsim import HttpClient
from repro.dnswire.name import Name
from repro.experiments.report import format_table
from repro.netsim.engine import Simulator
from repro.netsim.latency import Constant
from repro.netsim.network import Network
from repro.netsim.rand import RandomStreams
from repro.runtime import Experiment, Param

DEFAULT_REQUESTS = 1500
DEFAULT_OBJECTS = 300
#: Scatter probabilities for the disaggregated case (a Figure 3-ish mix).
SCATTER_WEIGHTS = (0.5, 0.3, 0.2)


class DisaggregationRow(NamedTuple):
    routing: str
    groups: int
    hit_ratio: float
    mean_fetch_ms: float


class DisaggregationResult(NamedTuple):
    rows: List[DisaggregationRow]
    requests: int

    def row(self, routing: str) -> DisaggregationRow:
        """The row with the given key; raises KeyError if absent."""
        for row in self.rows:
            if row.routing == routing:
                return row
        raise KeyError(routing)

    def render(self) -> str:
        """Render the paper-comparable text output."""
        table_rows = [(row.routing, str(row.groups),
                       f"{100 * row.hit_ratio:.1f}%",
                       f"{row.mean_fetch_ms:.1f}")
                      for row in self.rows]
        return format_table(
            ["Routing", "cache groups", "aggregate hit ratio",
             "mean fetch ms"],
            table_rows,
            title=(f"Request disaggregation vs. cache hit ratio "
                   f"({self.requests} requests)"))


class _Scenario:
    """One client, N cache groups, one origin, equal total capacity."""

    def __init__(self, groups: int, per_group_capacity: int,
                 seed: int) -> None:
        self.sim = Simulator()
        self.net = Network(self.sim, RandomStreams(seed))
        self.net.add_host("client", "10.45.0.2")
        self.net.add_host("origin", "203.0.113.80")
        self.net.add_link("client", "origin", Constant(40))
        self.catalog = ContentCatalog()
        rng = self.net.streams.stream("catalog")
        self.items = self.catalog.populate_synthetic(
            Name("video.mycdn.ciab.test"), DEFAULT_OBJECTS, rng,
            min_bytes=50_000, max_bytes=200_000)
        origin = CacheServer(self.net, self.net.host("origin"),
                             self.catalog, is_origin=True)
        self.caches: List[CacheServer] = []
        for index in range(groups):
            host = self.net.add_host(f"edge-{index}", f"10.233.1.{10 + index}")
            self.net.add_link("client", host.name, Constant(2))
            self.net.add_link(host.name, "origin", Constant(38))
            self.caches.append(CacheServer(
                self.net, host, self.catalog,
                capacity_bytes=per_group_capacity,
                parent=origin.endpoint))
        self.client = HttpClient(self.net, self.net.host("client"))

    def replay(self, requests: int, scatter_rng) -> DisaggregationRow:
        workload = ZipfWorkload(self.items,
                                self.net.streams.stream("workload"))
        latencies = []
        for item in workload.requests(requests):
            if len(self.caches) == 1:
                target = self.caches[0]
            else:
                target = scatter_rng.choices(
                    self.caches, weights=SCATTER_WEIGHTS)[0]
            fetch = self.sim.run_until_resolved(self.sim.spawn(
                self.client.fetch(item.url, target.endpoint.ip)))
            latencies.append(fetch.latency_ms)
        hits = sum(cache.stats.hits for cache in self.caches)
        misses = sum(cache.stats.misses for cache in self.caches)
        return DisaggregationRow(
            routing="aggregated" if len(self.caches) == 1 else "disaggregated",
            groups=len(self.caches),
            hit_ratio=hits / (hits + misses),
            mean_fetch_ms=sum(latencies) / len(latencies))


#: Total cache capacity is held constant: 1 x 3C vs 3 x C.
_UNIT_CAPACITY = 4_000_000


class DisaggregationExperiment(Experiment):
    """One trial per routing (aggregated vs disaggregated).

    Each routing already builds its own :class:`_Scenario` from the base
    seed, so the cells keep that seed and sharded output matches the
    historical run byte for byte.
    """

    name = "disaggregation"
    title = "§2 request disaggregation vs. cache hit ratio"
    params = (Param("requests", int, DEFAULT_REQUESTS,
                    "Zipf requests per routing"),
              Param("seed", int, 42, "base RNG seed"))

    def trials(self, params):
        cells = (("aggregated", 1, 3 * _UNIT_CAPACITY),
                 ("disaggregated", 3, _UNIT_CAPACITY))
        return [self.spec(index, seed=int(params["seed"]), routing=routing,
                          groups=groups, per_group_capacity=capacity,
                          requests=int(params["requests"]))
                for index, (routing, groups, capacity) in enumerate(cells)]

    def run_trial(self, spec):
        scenario = _Scenario(groups=int(spec.value("groups")),
                             per_group_capacity=int(
                                 spec.value("per_group_capacity")),
                             seed=spec.seed)
        scatter_rng = scenario.net.streams.stream("scatter")
        return scenario.replay(int(spec.value("requests")), scatter_rng)

    def merge(self, params, payloads):
        return DisaggregationResult(rows=list(payloads),
                                    requests=int(params["requests"]))

    def check_shape(self, result):
        """Violated claims (empty = all hold)."""
        violations: List[str] = []
        aggregated = result.row("aggregated")
        disaggregated = result.row("disaggregated")
        if not aggregated.hit_ratio > disaggregated.hit_ratio + 0.03:
            violations.append(
                f"disaggregation did not reduce the hit ratio "
                f"({aggregated.hit_ratio:.2f} vs {disaggregated.hit_ratio:.2f})")
        if not disaggregated.mean_fetch_ms > aggregated.mean_fetch_ms:
            violations.append("disaggregation did not raise mean fetch latency")
        return violations


EXPERIMENT = DisaggregationExperiment()
