"""§4 ECS experiment: EDNS Client Subnet on the first three deployments.

The paper: "We also evaluated the use of the EDNS Client Subnet feature
(ECS), implemented by enabling ECS support at L-DNS and C-DNS for the
first three deployment scenarios above.  ECS changed the measurements by
1.01x, 1.08x and 0.95x, respectively ... In these experiments the DNS
query was always correctly resolved to the appropriate CDN cache server
at the MEC."

``run`` measures each deployment with and without ECS (same seed and
query count) and reports the ratio plus the correctness check.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

from repro.core.deployments import DEPLOYMENT_LABELS, build_testbed
from repro.experiments.report import format_table
from repro.measure.runner import measure_deployment_queries
from repro.measure.stats import summarize
from repro.runtime import Experiment, Param

#: The three deployments the paper evaluates ECS on.
ECS_DEPLOYMENTS = (
    "mec-ldns-mec-cdns",
    "mec-ldns-lan-cdns",
    "mec-ldns-wan-cdns",
)

#: The published ratios, same order.
PAPER_RATIOS: Dict[str, float] = {
    "mec-ldns-mec-cdns": 1.01,
    "mec-ldns-lan-cdns": 1.08,
    "mec-ldns-wan-cdns": 0.95,
}


class EcsRow(NamedTuple):
    key: str
    label: str
    baseline_mean: float
    ecs_mean: float
    ratio: float
    paper_ratio: float
    always_correct_cache: bool


class EcsResult(NamedTuple):
    rows: List[EcsRow]
    queries: int

    def ratios(self) -> Dict[str, float]:
        """Deployment key -> measured ECS/no-ECS latency ratio."""
        return {row.key: row.ratio for row in self.rows}

    def render(self) -> str:
        """Render the paper-comparable text output."""
        table_rows = [(row.label,
                       f"{row.baseline_mean:.1f}",
                       f"{row.ecs_mean:.1f}",
                       f"{row.ratio:.2f}x",
                       f"{row.paper_ratio:.2f}x",
                       "yes" if row.always_correct_cache else "NO")
                      for row in self.rows]
        return format_table(
            ["Deployment", "no-ECS ms", "ECS ms", "ratio", "paper",
             "correct cache"],
            table_rows,
            title=f"ECS sensitivity ({self.queries} queries/config)")


class EcsExperiment(Experiment):
    """One trial per deployment; each measures with and without ECS.

    The pair shares one cell (same seed, same query count) because the
    ratio is only meaningful between testbeds built identically — the
    paper's "ECS changed the measurements by ..." comparison.
    """

    name = "ecs"
    title = "§4 ECS sensitivity on the first three deployments"
    params = (Param("queries", int, 40, "queries per configuration"),
              Param("seed", int, 42, "base RNG seed"))

    def trials(self, params):
        return [self.spec(index, seed=int(params["seed"]), key=key,
                          queries=int(params["queries"]))
                for index, key in enumerate(ECS_DEPLOYMENTS)]

    def run_trial(self, spec):
        key = str(spec.value("key"))
        queries = int(spec.value("queries"))
        baseline_tb = build_testbed(key, seed=spec.seed, ecs=False)
        baseline = measure_deployment_queries(baseline_tb, queries)
        ecs_tb = build_testbed(key, seed=spec.seed, ecs=True)
        with_ecs = measure_deployment_queries(ecs_tb, queries)
        baseline_mean = summarize([m.latency_ms for m in baseline]).mean
        ecs_mean = summarize([m.latency_ms for m in with_ecs]).mean
        correct = all(
            m.status == "NOERROR" and m.addresses
            and m.addresses[0] in ecs_tb.expected_cache_ips
            for m in with_ecs)
        return EcsRow(
            key=key,
            label=DEPLOYMENT_LABELS[key],
            baseline_mean=baseline_mean,
            ecs_mean=ecs_mean,
            ratio=ecs_mean / baseline_mean,
            paper_ratio=PAPER_RATIOS[key],
            always_correct_cache=correct)

    def merge(self, params, payloads):
        return EcsResult(rows=list(payloads),
                         queries=int(params["queries"]))

    def check_shape(self, result):
        """Violated ECS claims (empty = all hold).

        The paper's point is that ECS is *not a win* here: ratios hover
        around 1.0 (it "may even increase DNS resolution time") while
        answers stay correct.  We assert every ratio lands in [0.90, 1.15]
        and correctness holds.
        """
        violations: List[str] = []
        for row in result.rows:
            if not 0.90 <= row.ratio <= 1.15:
                violations.append(f"{row.key}: ECS ratio {row.ratio:.2f} "
                                  f"outside [0.90, 1.15]")
            if not row.always_correct_cache:
                violations.append(f"{row.key}: ECS answers not always the MEC "
                                  f"cache")
        return violations


EXPERIMENT = EcsExperiment()
