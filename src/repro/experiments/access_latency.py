"""End-to-end content access latency: DNS + fetch, per deployment.

The paper's abstract promises "drastic reductions in the access latency
for content cached in MEC-CDNs".  Figure 5 measures only the DNS part;
this experiment completes the claim: for each deployment, a UE resolves
the content name and then fetches the object from the answered cache,
and both components are reported.

Because the cache itself sits at the MEC in every deployment (that is
the premise), the fetch cost is similar everywhere — the access-latency
gap between deployments is almost entirely the DNS gap, which is exactly
the paper's argument for why DNS placement decides MEC-CDN viability.
"""

from __future__ import annotations

from typing import Generator, List, NamedTuple

from repro.cdn.httpsim import HttpClient
from repro.core.deployments import (
    DEPLOYMENT_KEYS,
    DEPLOYMENT_LABELS,
    build_testbed,
)
from repro.experiments.report import format_table
from repro.measure.runner import measure_deployment_queries
from repro.measure.stats import summarize
from repro.runtime import Experiment, Param

DEFAULT_ROUNDS = 12
#: The paper's motivating budget for AR/VR-class applications.
BUDGET_MS = 20.0


class AccessLatencyRow(NamedTuple):
    key: str
    label: str
    dns_ms: float
    fetch_ms: float
    total_ms: float
    cache_hit_rate: float


class AccessLatencyResult(NamedTuple):
    rows: List[AccessLatencyRow]
    rounds: int

    def row(self, key: str) -> AccessLatencyRow:
        """The row with the given key; raises KeyError if absent."""
        for row in self.rows:
            if row.key == key:
                return row
        raise KeyError(key)

    def render(self) -> str:
        """Render the paper-comparable text output."""
        table_rows = [(row.label, f"{row.dns_ms:.1f}", f"{row.fetch_ms:.1f}",
                       f"{row.total_ms:.1f}",
                       f"{100 * row.cache_hit_rate:.0f}%")
                      for row in self.rows]
        return format_table(
            ["Deployment", "DNS ms", "fetch ms", "total ms", "edge hits"],
            table_rows,
            title=(f"End-to-end content access latency "
                   f"({self.rounds} rounds/deployment)"))


def _measure_deployment(key: str, rounds: int, seed: int) -> AccessLatencyRow:
    testbed = build_testbed(key, seed=seed)
    dns = measure_deployment_queries(testbed, rounds)
    dns_mean = summarize([m.latency_ms for m in dns]).mean
    cache_ip = dns[0].addresses[0]
    url = f"http://{testbed.query_name.to_text().rstrip('.')}/seg1.ts"
    client = HttpClient(testbed.network, testbed.ue.host)
    sim = testbed.sim
    fetches = []

    def fetch_rounds() -> Generator:
        for _ in range(rounds):
            result = yield from client.fetch(url, cache_ip)
            fetches.append(result)
            yield 100.0

    sim.run_until_resolved(sim.spawn(fetch_rounds()))
    fetch_mean = summarize([f.latency_ms for f in fetches]).mean
    hits = sum(1 for f in fetches if f.cache_hit)
    return AccessLatencyRow(
        key=key, label=DEPLOYMENT_LABELS[key],
        dns_ms=dns_mean, fetch_ms=fetch_mean,
        total_ms=dns_mean + fetch_mean,
        cache_hit_rate=hits / len(fetches))


class AccessLatencyExperiment(Experiment):
    """One trial per deployment: DNS series plus cached-content fetches."""

    name = "access-latency"
    title = "End-to-end content access latency per deployment"
    params = (Param("rounds", int, DEFAULT_ROUNDS,
                    "measured rounds per deployment"),
              Param("seed", int, 42, "base RNG seed"))

    def trials(self, params):
        return [self.spec(index, seed=int(params["seed"]), key=key,
                          rounds=int(params["rounds"]))
                for index, key in enumerate(DEPLOYMENT_KEYS)]

    def run_trial(self, spec):
        return _measure_deployment(str(spec.value("key")),
                                   int(spec.value("rounds")), spec.seed)

    def merge(self, params, payloads):
        return AccessLatencyResult(rows=list(payloads),
                                   rounds=int(params["rounds"]))

    def check_shape(self, result):
        """Violated claims (empty = all hold)."""
        violations: List[str] = []
        mec = result.row("mec-ldns-mec-cdns")
        worst = max(result.rows, key=lambda row: row.total_ms)
        if not worst.total_ms / mec.total_ms > 4:
            violations.append(
                f"access-latency reduction only "
                f"{worst.total_ms / mec.total_ms:.1f}x — not 'drastic'")
        # The fetch leg is MEC-local everywhere, so it must be roughly flat:
        # the spread between deployments comes from DNS.
        fetches = [row.fetch_ms for row in result.rows]
        if max(fetches) - min(fetches) > 0.3 * max(fetches):
            violations.append("fetch leg varies too much across deployments")
        for row in result.rows:
            if row.cache_hit_rate < 1.0:
                violations.append(f"{row.key}: content not served from the "
                                  f"warmed MEC cache")
        dns_gap = worst.dns_ms - mec.dns_ms
        total_gap = worst.total_ms - mec.total_ms
        if not 0.9 <= dns_gap / total_gap <= 1.1:
            violations.append("the access-latency gap is not DNS-dominated")
        return violations


EXPERIMENT = AccessLatencyExperiment()
