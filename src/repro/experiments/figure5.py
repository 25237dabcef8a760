"""Figure 5: DNS lookup latency on the LTE testbed for six deployments.

For each deployment, run a series of measured queries with the paper's
dig + tcpdump-at-P-GW methodology and report the mean with min/max error
lines, split into the wireless and resolver components.

Paper values (read off the plot/text) are carried alongside so the
renderer and EXPERIMENTS.md can show paper-vs-measured directly.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

from repro.core.deployments import (
    DEPLOYMENT_KEYS,
    DEPLOYMENT_LABELS,
    build_testbed,
)
from repro.experiments.report import format_table
from repro.measure.runner import measure_deployment_queries
from repro.measure.stats import SummaryStats, summarize
from repro.runtime import Experiment, Param

#: Mean lookup latency per bar as published (ms).
PAPER_MEANS: Dict[str, float] = {
    "mec-ldns-mec-cdns": 14.4,
    "mec-ldns-lan-cdns": 19.4,
    "mec-ldns-wan-cdns": 60.9,
    "lan-ldns": 114.6,
    "google-dns": 112.5,
    "cloudflare-dns": 128.4,
}


class Figure5Row(NamedTuple):
    key: str
    label: str
    latency: SummaryStats
    wireless: SummaryStats
    resolver: SummaryStats
    paper_mean: float


class Figure5Result(NamedTuple):
    rows: List[Figure5Row]
    queries: int

    def means(self) -> Dict[str, float]:
        """Deployment key -> mean lookup latency in ms."""
        return {row.key: row.latency.mean for row in self.rows}

    def row(self, key: str) -> Figure5Row:
        """The row with the given key; raises KeyError if absent."""
        for row in self.rows:
            if row.key == key:
                return row
        raise KeyError(key)

    def render_chart(self, width: int = 46) -> str:
        """A horizontal bar chart shaped like the paper's Figure 5.

        Each bar splits into the wireless segment (``=``) and the
        resolver segment (``#``); ``|`` marks min/max whiskers scaled to
        the same axis.
        """
        scale_max = max(row.latency.maximum for row in self.rows)
        label_width = max(len(row.label) for row in self.rows)
        lines = ["Figure 5 (chart): '=' wireless, '#' resolver, "
                 "'|' min/max"]
        for row in self.rows:
            wireless_cells = round(width * row.wireless.mean / scale_max)
            resolver_cells = round(width * row.resolver.mean / scale_max)
            lo = round(width * row.latency.minimum / scale_max)
            hi = min(round(width * row.latency.maximum / scale_max),
                     width - 1)
            bar = list("=" * wireless_cells + "#" * resolver_cells)
            bar.extend(" " * (width - len(bar)))
            for marker in (lo, hi):
                if 0 <= marker < width and bar[marker] == " ":
                    bar[marker] = "|"
            lines.append(f"{row.label.ljust(label_width)} "
                         f"{''.join(bar)} {row.latency.mean:6.1f} ms")
        return "\n".join(lines)

    def render(self) -> str:
        """Render the paper-comparable text output."""
        table_rows = []
        for row in self.rows:
            table_rows.append((
                row.label,
                f"{row.latency.mean:.1f}",
                f"{row.paper_mean:.1f}",
                f"{row.latency.minimum:.1f}",
                f"{row.latency.maximum:.1f}",
                f"{row.wireless.mean:.1f}",
                f"{row.resolver.mean:.1f}"))
        return format_table(
            ["Deployment", "mean ms", "paper ms", "min", "max",
             "wireless", "resolver"],
            table_rows,
            title=(f"Figure 5: DNS lookup latency on the LTE testbed "
                   f"({self.queries} queries/bar)"))


class Figure5Experiment(Experiment):
    """One trial per deployment bar.

    Each bar already builds its own testbed from the base seed, so the
    cells keep that seed unchanged and the sharded output matches the
    historical single-process run byte for byte.
    """

    name = "figure5"
    title = "Figure 5: DNS lookup latency on the LTE testbed"
    params = (Param("queries", int, 40, "queries per bar"),
              Param("seed", int, 42, "base RNG seed"),
              Param("ecs", bool, False, "enable ECS", cli=False))

    def trials(self, params):
        return [self.spec(index, seed=int(params["seed"]), key=key,
                          queries=int(params["queries"]),
                          ecs=bool(params["ecs"]))
                for index, key in enumerate(DEPLOYMENT_KEYS)]

    def run_trial(self, spec):
        key = str(spec.value("key"))
        testbed = build_testbed(key, seed=spec.seed,
                                ecs=bool(spec.value("ecs")))
        measurements = measure_deployment_queries(
            testbed, int(spec.value("queries")))
        return Figure5Row(
            key=key,
            label=DEPLOYMENT_LABELS[key],
            latency=summarize([m.latency_ms for m in measurements]),
            wireless=summarize([m.wireless_ms for m in measurements]),
            resolver=summarize([m.resolver_ms for m in measurements]),
            paper_mean=PAPER_MEANS[key])

    def merge(self, params, payloads):
        return Figure5Result(rows=list(payloads),
                             queries=int(params["queries"]))

    def render_result(self, result):
        return result.render_chart() + "\n\n" + result.render()

    def check_shape(self, result):
        """Violated Figure 5 claims (empty = all hold)."""
        violations: List[str] = []
        means = result.means()
        order = ["mec-ldns-mec-cdns", "mec-ldns-lan-cdns", "mec-ldns-wan-cdns"]
        for earlier, later in zip(order, order[1:]):
            if not means[earlier] < means[later]:
                violations.append(f"{earlier} not faster than {later}")
        for key in ("mec-ldns-mec-cdns", "mec-ldns-lan-cdns"):
            if means[key] >= 20:
                violations.append(f"{key} misses the 20ms envelope "
                                  f"({means[key]:.1f}ms)")
        for key in ("mec-ldns-wan-cdns", "lan-ldns", "google-dns",
                    "cloudflare-dns"):
            if means[key] <= 20:
                violations.append(f"{key} unexpectedly under 20ms")
        gap = means["mec-ldns-lan-cdns"] - means["mec-ldns-mec-cdns"]
        if not 3 <= gap <= 8:
            violations.append(f"MEC vs LAN C-DNS gap {gap:.1f}ms not ~5ms")
        speedup = max(means[k] for k in ("lan-ldns", "google-dns",
                                         "cloudflare-dns")) / \
            means["mec-ldns-mec-cdns"]
        if speedup < 7.5:
            violations.append(f"best-case speedup {speedup:.1f}x below ~9x")
        mec_row = result.row("mec-ldns-mec-cdns")
        if mec_row.wireless.mean / mec_row.latency.mean < 0.6:
            violations.append("wireless leg does not dominate the MEC bar")
        return violations


EXPERIMENT = Figure5Experiment()
