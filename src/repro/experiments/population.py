"""Population-scale Figure 5: city traffic against the six deployments.

The paper measures each deployment with tens of queries from one UE;
this artifact drives the same deployments with a synthesized city —
10^4–10^6+ UEs, Zipf content popularity, diurnal session arrivals,
inter-site mobility — and reports what only shows up at scale: cache
localization, aggregate hit rate, and tail latency (p50/p99/p99.9).

Structure: each deployment's population splits into ``districts``
independent slices (the sharding unit; see
:mod:`repro.workload.engine`), one trial per (deployment, district).
Every trial first derives the deployment's calibrated latency model
from a full-fidelity testbed run whose seed is shard-independent, so
all districts of a deployment — and the serial and ``--jobs N`` paths —
agree exactly.  Aggregates are streaming histograms plus exact
counters; no per-query records exist anywhere.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence

from repro.cdn.allocation import ALLOCATION_POLICIES
from repro.core.deployments import DEPLOYMENT_KEYS, DEPLOYMENT_LABELS
from repro.experiments.report import format_table
from repro.measure.histogram import HistogramSummary
from repro.runtime import Experiment, Param
from repro.runtime.spec import TrialSpec
from repro.workload.arrivals import SECONDS_PER_HOUR, DiurnalProfile
from repro.workload.deployment import calibrate, is_localized
from repro.workload.engine import (DistrictConfig, DistrictStats,
                                   district_seed, merge_stats, run_district)

#: Default total queries targeted per deployment (all districts).
DEFAULT_TARGET_QUERIES = 20_000
#: Minimum merged queries per row before the statistical shape claims
#: are asserted; tiny smoke runs still check the structural ones.
SHAPE_MIN_QUERIES = 2_000

#: Fixed per-run shape of the simulated city window.
SIMULATED_HOURS = 1.0
SESSIONS_PER_UE_HOUR = 1.0
MEAN_REQUESTS = 8.0
MEAN_THINK_S = 4.0
MOVE_PROBABILITY = 0.15
HANDOVER_PROBABILITY = 0.05
#: The window starts at 18:00 simulated — on the diurnal evening ramp.
START_S = 18 * 3600.0


class PopulationRow(NamedTuple):
    """One deployment's merged city-scale aggregates."""

    key: str
    label: str
    queries: int
    sessions: int
    active_ues: int
    localization: float
    hit_rate: float
    handovers: int
    load_imbalance: float
    dns: HistogramSummary
    total: HistogramSummary


class PopulationResult(NamedTuple):
    rows: List[PopulationRow]
    target_queries: int
    districts: int
    sites: int
    allocation: str
    catalog: int

    def row(self, key: str) -> PopulationRow:
        """The row with the given key; raises KeyError if absent."""
        for row in self.rows:
            if row.key == key:
                return row
        raise KeyError(key)

    def render(self) -> str:
        """The printed population table (one row per deployment)."""
        table_rows = []
        for row in self.rows:
            table_rows.append((
                row.label,
                f"{row.queries}",
                f"{100 * row.localization:.1f}%",
                f"{100 * row.hit_rate:.1f}%",
                f"{row.dns.p50:.1f}",
                f"{row.dns.p99:.1f}",
                f"{row.total.p50:.1f}",
                f"{row.total.p99:.1f}",
                f"{row.total.p999:.1f}",
                f"{row.load_imbalance:.2f}"))
        return format_table(
            ["Deployment", "queries", "local", "hit",
             "dns p50", "dns p99", "p50", "p99", "p99.9", "imbal"],
            table_rows,
            title=(f"Population scale: {self.target_queries} queries/"
                   f"deployment target, {self.sites} sites, "
                   f"{self.districts} districts, "
                   f"allocation={self.allocation}, "
                   f"catalog={self.catalog} (latencies in ms)"))


class _ShardPayload(NamedTuple):
    """One trial's output: which deployment it belongs to, plus stats."""

    key: str
    district: int
    stats: DistrictStats


class PopulationExperiment(Experiment):
    """One trial per (deployment, district)."""

    name = "population"
    title = "Population-scale workload across the Figure 5 deployments"
    params = (
        Param("target_queries", int, DEFAULT_TARGET_QUERIES,
              "approximate queries per deployment (all districts)"),
        Param("districts", int, 2, "independent population shards"),
        Param("sites", int, 4, "MEC sites per district"),
        Param("cache_capacity", int, 2000, "objects per cache"),
        Param("catalog", int, 100_000, "synthetic catalog size"),
        Param("allocation", str, "content",
              "cache allocation: content | client | client-bounded"),
        Param("deployment", str, "all",
              "one deployment key, or 'all' for the Figure 5 six"),
        Param("seed", int, 42, "base RNG seed"),
        Param("zipf", float, 0.9, "content popularity exponent",
              cli=False),
        Param("caches_per_site", int, 2, "caches per MEC site",
              cli=False),
    )

    # -- plan ----------------------------------------------------------------

    @staticmethod
    def _keys(params: Mapping[str, object]) -> List[str]:
        deployment = str(params["deployment"])
        if deployment == "all":
            return list(DEPLOYMENT_KEYS)
        if deployment not in DEPLOYMENT_KEYS:
            raise ValueError(f"unknown deployment {deployment!r}; "
                             f"expected 'all' or one of {DEPLOYMENT_KEYS}")
        return [deployment]

    @staticmethod
    def _window_activity(profile: DiurnalProfile, start_s: float,
                         duration_s: float) -> float:
        """Average diurnal multiplier over the window, relative to the
        day mean — the factor by which the simulated window's arrival
        rate exceeds (or trails) the day-average rate."""
        total = 0.0
        t = start_s
        remaining = duration_s
        while remaining > 1e-9:
            hour_end = (t // SECONDS_PER_HOUR + 1) * SECONDS_PER_HOUR
            step = min(remaining, hour_end - t)
            total += profile.multiplier(t) * step
            t += step
            remaining -= step
        return (total / duration_s) / profile.mean

    @classmethod
    def _config(cls, params: Mapping[str, object]) -> DistrictConfig:
        districts = int(params["districts"])
        if districts < 1:
            raise ValueError(f"need >= 1 district, got {districts}")
        allocation = str(params["allocation"])
        if allocation not in ALLOCATION_POLICIES:
            raise ValueError(
                f"allocation must be one of {ALLOCATION_POLICIES}, "
                f"got {allocation!r}")
        target = int(params["target_queries"])
        # The window sits on the evening ramp, so each UE contributes
        # more sessions than the day-average rate suggests; fold the
        # window's activity factor in so ``target_queries`` stays honest.
        activity = cls._window_activity(
            DiurnalProfile(), START_S, SIMULATED_HOURS * 3600.0)
        expected_per_ue = (SESSIONS_PER_UE_HOUR * SIMULATED_HOURS
                           * activity * MEAN_REQUESTS)
        ues = max(1, round(target / districts / expected_per_ue))
        return DistrictConfig(
            ues=ues,
            sites=int(params["sites"]),
            caches_per_site=int(params["caches_per_site"]),
            cache_capacity=int(params["cache_capacity"]),
            catalog_size=int(params["catalog"]),
            zipf_exponent=float(params["zipf"]),
            duration_s=SIMULATED_HOURS * 3600.0,
            sessions_per_ue_hour=SESSIONS_PER_UE_HOUR,
            mean_requests=MEAN_REQUESTS,
            mean_think_s=MEAN_THINK_S,
            move_probability=MOVE_PROBABILITY,
            handover_probability=HANDOVER_PROBABILITY,
            allocation=allocation,
            start_s=START_S)

    def trials(self, params: Mapping[str, object]) -> List[TrialSpec]:
        self._config(params)  # validate early, in the planner
        districts = int(params["districts"])
        specs: List[TrialSpec] = []
        index = 0
        for key in self._keys(params):
            for district in range(districts):
                specs.append(self.spec(
                    index, seed=int(params["seed"]), key=key,
                    district=district,
                    target_queries=int(params["target_queries"]),
                    districts=districts,
                    sites=int(params["sites"]),
                    cache_capacity=int(params["cache_capacity"]),
                    catalog=int(params["catalog"]),
                    allocation=str(params["allocation"]),
                    zipf=float(params["zipf"]),
                    caches_per_site=int(params["caches_per_site"])))
                index += 1
        return specs

    # -- execution -----------------------------------------------------------

    def run_trial(self, spec: TrialSpec) -> _ShardPayload:
        cell = spec.cell_dict()
        cell_params: Dict[str, object] = {
            name: cell[name]
            for name in ("target_queries", "districts", "sites",
                         "cache_capacity", "catalog", "allocation",
                         "zipf", "caches_per_site")}
        cell_params["deployment"] = cell["key"]
        key = str(cell["key"])
        district = int(str(cell["district"]))
        config = self._config(cell_params)
        model = calibrate(key, spec.seed)
        stats = run_district(config, model,
                             district_seed(spec.seed, key, district),
                             scope=f"{key}/d{district}")
        return _ShardPayload(key=key, district=district, stats=stats)

    def merge(self, params: Mapping[str, object],
              payloads: Sequence[object]) -> PopulationResult:
        grouped: Dict[str, List[DistrictStats]] = {}
        for payload in payloads:
            assert isinstance(payload, _ShardPayload)
            grouped.setdefault(payload.key, []).append(payload.stats)
        rows: List[PopulationRow] = []
        for key in self._keys(params):
            stats = merge_stats(grouped.get(key, []))
            rows.append(PopulationRow(
                key=key,
                label=DEPLOYMENT_LABELS[key],
                queries=stats.queries,
                sessions=stats.sessions,
                active_ues=stats.active_ues,
                localization=stats.localization,
                hit_rate=stats.hit_rate,
                handovers=stats.handovers,
                load_imbalance=stats.load_imbalance(),
                dns=stats.dns.summary(),
                total=stats.total.summary()))
        return PopulationResult(
            rows=rows,
            target_queries=int(params["target_queries"]),
            districts=int(params["districts"]),
            sites=int(params["sites"]),
            allocation=str(params["allocation"]),
            catalog=int(params["catalog"]))

    def check_shape(self, result: object) -> List[str]:
        """Violated population-scale claims (empty = all hold)."""
        assert isinstance(result, PopulationResult)
        violations: List[str] = []
        by_key = {row.key: row for row in result.rows}

        for row in result.rows:
            if not row.queries:
                violations.append(f"{row.key} served no queries")
                continue
            summary = row.total
            if not summary.p50 <= summary.p99 <= summary.p999:
                violations.append(f"{row.key} quantiles not monotone")
            if is_localized(row.key):
                if row.localization < 0.99:
                    violations.append(
                        f"{row.key} localization {row.localization:.3f} "
                        f"below 0.99 despite MEC collocation")
            elif result.sites > 1 and row.queries >= SHAPE_MIN_QUERIES:
                # A client-blind resolver pins the city to one anchor site:
                # localization collapses toward 1/sites.
                if row.localization > 0.5:
                    violations.append(
                        f"{row.key} localization {row.localization:.3f} "
                        f"too high for a client-blind resolver")

        def dns_p50(key: str) -> Optional[float]:
            row = by_key.get(key)
            return row.dns.p50 if row is not None and row.queries else None

        order = ["mec-ldns-mec-cdns", "mec-ldns-lan-cdns", "mec-ldns-wan-cdns"]
        present = [key for key in order if dns_p50(key) is not None]
        for earlier, later in zip(present, present[1:]):
            early_p50, late_p50 = dns_p50(earlier), dns_p50(later)
            assert early_p50 is not None and late_p50 is not None
            if not early_p50 < late_p50:
                violations.append(f"{earlier} dns p50 not below {later}")
        for key in ("mec-ldns-mec-cdns", "mec-ldns-lan-cdns"):
            p50 = dns_p50(key)
            if p50 is not None and p50 >= 20:
                violations.append(
                    f"{key} dns p50 {p50:.1f}ms misses the 20ms envelope")
        for key in ("mec-ldns-wan-cdns", "lan-ldns", "google-dns",
                    "cloudflare-dns"):
            p50 = dns_p50(key)
            if p50 is not None and p50 <= 20:
                violations.append(f"{key} dns p50 unexpectedly under 20ms")

        # Load balance is where client-blind resolution falls apart at
        # city scale: the anchor cache absorbs everything, so imbalance
        # (max/mean over caches) approaches the cache count, while any
        # consistent-hash policy keeps the localized rows near flat.
        localized_rows = [row for row in result.rows
                          if is_localized(row.key)
                          and row.queries >= SHAPE_MIN_QUERIES]
        blind_rows = [row for row in result.rows
                      if not is_localized(row.key)
                      and row.queries >= SHAPE_MIN_QUERIES]
        for row in localized_rows:
            if row.load_imbalance > 3.0:
                violations.append(
                    f"{row.key} cache load imbalance {row.load_imbalance:.2f} "
                    f"exceeds 3.0 under consistent hashing")
        if localized_rows and blind_rows:
            worst_localized = max(row.load_imbalance for row in localized_rows)
            best_blind = min(row.load_imbalance for row in blind_rows)
            if best_blind <= 2.0 * worst_localized:
                violations.append(
                    f"anchor-pinned imbalance {best_blind:.2f} not clearly "
                    f"worse than localized {worst_localized:.2f}")
        for row in localized_rows + blind_rows:
            # Caches must be doing real work: some hits (Zipf head repeats)
            # and some misses (cold starts at minimum).
            if not 0.0 < row.hit_rate < 1.0:
                violations.append(
                    f"{row.key} hit rate {row.hit_rate:.3f} degenerate")

        return violations


EXPERIMENT = PopulationExperiment()
