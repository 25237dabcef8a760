"""The population workload engine: drive a deployment at city scale.

One :func:`run_district` call simulates a *district*: an independent
slice of the city (its own UEs, MEC sites, and caches) running one
calibrated deployment for a stretch of simulated time.  Districts are
the sharding unit — the experiment's trial plan is identical serial
and sharded, and a district's result depends only on its config and
seed — so merging district stats in spec order keeps the runtime's
byte-identical contract for free.

Per request the engine composes exactly the decisions the packet-level
stack makes, without the packets:

* DNS cost sampled from the deployment's calibrated wireless/resolver
  legs (:mod:`repro.workload.deployment`);
* cache selection through the *same* consistent-hash geometry the
  traffic router uses (:mod:`repro.cdn.allocation`) — content hashing,
  client hashing, or Huang et al.'s bounded-load client allocation —
  for the client-aware MEC deployments, or the anchor cache for the
  client-blind warmed resolvers (the paper's mislocalization);
* LRU hit/miss at the selected cache, with intra-site, inter-site, and
  origin-fill legs priced from the testbed's link constants;
* inter-site mobility and mid-session handover interruptions
  (:mod:`repro.workload.mobility`).

Aggregation is streaming only: two :class:`LatencyHistogram` instances
and exact counters.  Nothing in this module retains per-query records.

When ambient telemetry is installed (:func:`repro.telemetry.get_default`)
the engine additionally streams **observability aggregates** — windowed
time-series cells, tail exemplars of the slowest queries, and one span
tree per head-sampled session (a session root with one query span per
request; per-stage breakdown rides on the exemplars) — without
touching the simulation: no
extra RNG draw, no clock read, and the district's :class:`DistrictStats`
(hence every digest) is byte-identical with telemetry on or off.  The
hot loop aggregates into plain local dicts and flushes once per
district; the keep/drop decision for span trees is a splitmix64 hash of
the session ordinal, so serial and sharded runs sample the exact same
sessions.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import Any, Dict, List, NamedTuple, Optional

from repro import telemetry as _telemetry
from repro.cdn.allocation import (ALLOCATION_POLICIES, ConsistentAllocator,
                                  HashRing)
from repro.cdn.content import ZipfRankStream
from repro.measure.histogram import LatencyHistogram
from repro.runtime.spec import derive_seed
from repro.telemetry import DEFAULT_BUCKETS, Exemplar, Span
from repro.telemetry.sampling import hash_unit, hash_unit_u64
from repro.workload.arrivals import DiurnalProfile, NhppArrivals
from repro.workload.caches import RankLru
from repro.workload.deployment import (INTER_SITE_LEG, INTRA_SITE_LEG,
                                       ORIGIN_LEG, ORIGIN_SERVICE_MS,
                                       DeploymentModel)
from repro.workload.mobility import HANDOVER_INTERRUPTION_MS, MobilityModel
from repro.workload.population import Population, UserProfile
from repro.workload.sessions import SessionModel


class DistrictConfig(NamedTuple):
    """Everything that defines one district's workload."""

    ues: int
    sites: int
    caches_per_site: int
    #: Objects each cache can hold.
    cache_capacity: int
    #: Synthetic catalog size (never materialized).
    catalog_size: int
    zipf_exponent: float
    #: Simulated span of the run, seconds.
    duration_s: float
    #: Day-average sessions per UE per hour.
    sessions_per_ue_hour: float
    mean_requests: float
    mean_think_s: float
    move_probability: float
    handover_probability: float
    allocation: str
    #: Simulated start time (seconds past midnight) — picks the diurnal
    #: window the run covers.
    start_s: float = 0.0


class DistrictStats(NamedTuple):
    """One district's streaming aggregates (mergeable, picklable)."""

    queries: int
    sessions: int
    active_ues: int
    hits: int
    #: Requests served by a cache at the UE's current site.
    localized: int
    handovers: int
    #: Requests served per (site, cache), flattened site-major — the
    #: load-balance evidence for the allocation policies.
    cache_load: List[int]
    dns: LatencyHistogram
    total: LatencyHistogram

    @property
    def hit_rate(self) -> float:
        return self.hits / self.queries if self.queries else 0.0

    @property
    def localization(self) -> float:
        return self.localized / self.queries if self.queries else 0.0

    def load_imbalance(self) -> float:
        """max/mean over per-cache serve counts (1.0 = perfectly flat)."""
        if not self.cache_load or not self.queries:
            return 0.0
        mean = sum(self.cache_load) / len(self.cache_load)
        return max(self.cache_load) / mean if mean else 0.0


def merge_stats(parts: List[DistrictStats]) -> DistrictStats:
    """Fold district stats in the given order (exact counters, merged
    histograms); the caller supplies spec order for determinism."""
    if not parts:
        empty = LatencyHistogram()
        return DistrictStats(0, 0, 0, 0, 0, 0, [], empty, LatencyHistogram())
    cache_load = list(parts[0].cache_load)
    dns = LatencyHistogram()
    total = LatencyHistogram()
    queries = sessions = active = hits = localized = handovers = 0
    for part in parts:
        queries += part.queries
        sessions += part.sessions
        active += part.active_ues
        hits += part.hits
        localized += part.localized
        handovers += part.handovers
        dns.merge(part.dns)
        total.merge(part.total)
    for part in parts[1:]:
        if len(part.cache_load) != len(cache_load):
            raise ValueError("districts have mismatched cache grids")
        for index, load in enumerate(part.cache_load):
            cache_load[index] += load
    return DistrictStats(
        queries=queries, sessions=sessions, active_ues=active, hits=hits,
        localized=localized, handovers=handovers, cache_load=cache_load,
        dns=dns, total=total)


class _Router:
    """The district's cache-selection logic, shared-geometry with the
    production router."""

    def __init__(self, config: DistrictConfig) -> None:
        if config.allocation not in ALLOCATION_POLICIES:
            raise ValueError(
                f"allocation must be one of {ALLOCATION_POLICIES}, "
                f"got {config.allocation!r}")
        self.config = config
        names = [[f"site{site}-cache{cache}"
                  for cache in range(config.caches_per_site)]
                 for site in range(config.sites)]
        self._index: Dict[str, int] = {}
        for site, row in enumerate(names):
            for cache, name in enumerate(row):
                self._index[name] = site * config.caches_per_site + cache
        self._rings: List[HashRing] = [
            HashRing(row, name_of=lambda member: str(member))
            for row in names]
        self._allocators: Optional[List[ConsistentAllocator]] = None
        if config.allocation == "client-bounded":
            self._allocators = [ConsistentAllocator(row) for row in names]

    def select(self, site: int, content_key: str,
               client_key: str) -> int:
        """The flat cache index serving this request from ``site``."""
        if self._allocators is not None:
            chosen = self._allocators[site].assign(client_key)
        elif self.config.allocation == "client":
            picked = self._rings[site].pick(client_key)
            chosen = str(picked) if picked is not None else None
        else:
            picked = self._rings[site].pick(content_key)
            chosen = str(picked) if picked is not None else None
        if chosen is None:  # pragma: no cover - rings are never empty
            raise RuntimeError("empty cache ring")
        return self._index[chosen]


def run_district(config: DistrictConfig, model: DeploymentModel,
                 seed: int, scope: str = "") -> DistrictStats:
    """Simulate one district and return its streaming aggregates.

    ``seed`` roots the district's population; every UE's behaviour is a
    pure function of ``derive_seed(seed, "ue", index)``, so the result
    is independent of process placement.  ``scope`` names this district
    in observability output (exemplar keys, span sampling salt) — pass
    something unique per trial (the population experiment uses
    ``"<deployment>/d<district>"``); it defaults to the deployment key.
    """
    population = Population(config.ues, config.sites, seed)
    profile = DiurnalProfile()
    arrivals = NhppArrivals(
        config.sessions_per_ue_hour / 3600.0, profile)
    session_model = SessionModel(mean_requests=config.mean_requests,
                                 mean_think_s=config.mean_think_s)
    mobility = MobilityModel(config.sites,
                             move_probability=config.move_probability,
                             handover_probability=config.handover_probability)
    router = _Router(config)
    caches = [RankLru(config.cache_capacity)
              for _ in range(config.sites * config.caches_per_site)]
    cache_load = [0] * len(caches)
    dns_hist = LatencyHistogram()
    total_hist = LatencyHistogram()
    queries = sessions = active = hits = localized = handovers = 0

    anchor_cache = 0  # client-blind resolvers answer site 0, cache 0
    per_site = config.caches_per_site

    # -- observability bindings (all hoisted out of the hot loop).  The
    # aggregates live in plain local dicts keyed by (site, window) and
    # flush once at district end; nothing below draws randomness or
    # reads a clock, so DistrictStats is identical with telemetry on/off.
    tel = _telemetry.get_default()
    observing = tel is not None
    if observing:
        scope_key = scope or model.key
        #: Windows per simulated second — one multiply per rebind
        #: instead of a divide.
        win_scale = 1000.0 / tel.timeseries.window_ms
        #: Window width in simulated seconds; the hot loop compares the
        #: query clock against [win_lo, win_hi) and only recomputes the
        #: window index on a crossing.
        window_s = tel.timeseries.window_ms / 1000.0
        tail = tel.tail
        tail_enabled = tail.capacity > 0
        tracer = tel.tracer
        tracing = tracer.enabled and tracer.sample_rate > 0.0
        sample_rate = tracer.sample_rate
        sample_all = sample_rate >= 1.0
        #: Per-district salt so session ordinals hash independently
        #: across districts (decision correlation, nothing else).
        scope_salt = int(hash_unit(scope_key) * 9007199254740992.0)
        deployment_key = model.key
        # Raw per-window value lists; bucketed once per district in
        # _flush_observability (sorted-array bucketing), which keeps the
        # per-query cost to two list appends.
        dns_vals: Dict[int, List[float]] = {}
        total_vals: Dict[int, List[float]] = {}
        # Per-window site counters as flat int lists (index = site):
        # ``cur_q[site] += 1`` is the cheapest increment CPython offers,
        # and the window-change branch below re-points the four cursors
        # at most once per session batch.
        query_wins: Dict[int, List[int]] = {}
        misloc_wins: Dict[int, List[int]] = {}
        cur_q: List[int] = []
        cur_m: List[int] = []
        # Degenerate bounds force a rebind on the first query.
        win_lo = win_hi = 0.0
        cur_dns_append = cur_total_append = _noop_append
        threshold: Optional[float] = None
        session_ordinal = 0
        sampled_queries = 0
        trace_id = root_sid = span_base = span_n = 0
        session_spans: Optional[List[Span]] = None
        session_root: Optional[Span] = None
        session_end = 0.0
        stages: List[Any] = []
        # Small-int site labels are reused constantly; interning them
        # once keeps str() out of the sampled-query path.
        site_strs = [str(at) for at in range(config.sites)]
        t_ms = 0.0

    for index in range(config.ues):
        ue: UserProfile = population.user(index)
        rng: random.Random = population.user_rng(ue)
        zipf = ZipfRankStream(config.catalog_size, rng,
                              exponent=config.zipf_exponent)
        client_key = ue.client_ip()
        ue_sessions = 0
        for start in arrivals.times(rng, config.duration_s,
                                    start_s=config.start_s):
            requests = session_model.request_count(rng)
            placement = mobility.place_session(rng, ue.home_site, requests)
            site = placement.site
            ue_sessions += 1
            if observing:
                session_ordinal += 1
                # The rejection threshold only ever rises, so a
                # session-stale read can over-offer (offer() rechecks)
                # but never miss a genuine tail candidate.
                threshold = tail.threshold_ms
                if tracing and (sample_all or hash_unit_u64(
                        scope_salt + session_ordinal) < sample_rate):
                    # One trace per sampled *session*: a root session
                    # span plus one query span per request.  Stage-level
                    # breakdown lives in the tail exemplars (which
                    # exemplar_spans re-expands into full trees); the
                    # sampled stream stays cheap enough to leave on at
                    # population scale.
                    trace_base, span_base = tracer.id_offsets()
                    trace_id = trace_base + 1
                    root_sid = span_base + 1
                    t_ms = start * 1000.0
                    session_root = Span(
                        trace_id, root_sid, None, "session", "workload",
                        deployment_key, t_ms, t_ms,
                        {"deployment": deployment_key, "ue": str(index),
                         "home_site": site_strs[ue.home_site]})
                    session_spans = [session_root]
                    span_n = 1
                    session_end = t_ms
                else:
                    session_spans = None
            for ordinal in range(requests):
                interruption = 0.0
                if ordinal == placement.handover_at:
                    site = placement.handover_site
                    handovers += 1
                    interruption = HANDOVER_INTERRUPTION_MS
                rank = zipf.next_rank()
                content_key = f"obj{rank:07d}.pop.mycdn.ciab.test"
                if model.localized:
                    cache_index = router.select(site, content_key,
                                                client_key)
                else:
                    cache_index = anchor_cache
                served_site = cache_index // per_site
                hit = caches[cache_index].lookup(rank)
                cache_load[cache_index] += 1

                wireless_ms, resolver_ms = model.dns_legs(rng)
                dns_ms = wireless_ms + resolver_ms + interruption
                fetch_leg = (INTRA_SITE_LEG if served_site == site
                             else INTER_SITE_LEG)
                # Round trip to the cache: request + response legs.
                fetch_ms = 2.0 * fetch_leg.sample(rng)
                latency = dns_ms + fetch_ms
                if hit:
                    hits += 1
                    origin_ms = 0.0
                else:
                    origin_ms = (2.0 * ORIGIN_LEG.sample(rng)
                                 + ORIGIN_SERVICE_MS)
                    latency += origin_ms
                if served_site == site:
                    localized += 1
                queries += 1
                dns_hist.add(dns_ms)
                total_hist.add(latency)

                if observing:
                    if start >= win_hi or start < win_lo:
                        window = int(start * win_scale)
                        win_lo = window * window_s
                        win_hi = win_lo + window_s
                        vals = dns_vals.get(window)
                        if vals is None:
                            vals = dns_vals[window] = []
                            total_vals[window] = []
                            query_wins[window] = [0] * config.sites
                            misloc_wins[window] = [0] * config.sites
                        cur_dns_append = vals.append
                        cur_total_append = total_vals[window].append
                        cur_q = query_wins[window]
                        cur_m = misloc_wins[window]
                    cur_dns_append(dns_ms)
                    cur_total_append(latency)
                    cur_q[site] += 1
                    if served_site != site:
                        cur_m[site] += 1
                    wants_tail = tail_enabled and (threshold is None
                                                   or latency >= threshold)
                    if wants_tail or session_spans is not None:
                        t_ms = start * 1000.0
                        if session_spans is not None:
                            span_n += 1
                            span_end = t_ms + latency
                            # Queries can overlap (think time restarts
                            # at issue, not completion), so the session
                            # end is the max end, not the last.
                            if span_end > session_end:
                                session_end = span_end
                            session_spans.append(Span(
                                trace_id, span_base + span_n, root_sid,
                                "query", "workload", deployment_key,
                                t_ms, span_end,
                                {"hit": "1" if hit else "0",
                                 "served_site": site_strs[served_site],
                                 "site": site_strs[site]}))
                        if wants_tail:
                            stages = [("dns.wireless", wireless_ms),
                                      ("dns.resolver", resolver_ms)]
                            if interruption:
                                stages.append(("handover", interruption))
                            stages.append(("fetch", fetch_ms))
                            if origin_ms:
                                stages.append(("origin", origin_ms))
                            tail.offer(Exemplar(
                                key=(f"{scope_key}/u{index}"
                                     f"/s{ue_sessions}/q{ordinal}"),
                                total_ms=latency, t_ms=t_ms,
                                stages=tuple(stages),
                                attrs=(("deployment", deployment_key),
                                       ("hit", "1" if hit else "0"),
                                       ("served_site",
                                        site_strs[served_site]),
                                       ("site", site_strs[site]))))
                # Think time advances the session clock; the diurnal
                # multiplier is per-session (sessions are minutes long,
                # buckets are hours), so the clock only gates overflow.
                start += session_model.think_time(rng)
            if observing and session_spans is not None:
                # One ingest per sampled session: ids were built against
                # the tracer's high-water mark at session start, so the
                # batch lands copy-free and interleaves identically on
                # every backend.
                assert session_root is not None
                session_root.end_ms = session_end
                tracer.ingest(session_spans, 1, span_n)
                sampled_queries += span_n - 1
                session_spans = None
        if ue_sessions:
            active += 1
            sessions += ue_sessions

    if observing:
        _flush_observability(tel, model.key, dns_vals, total_vals,
                             query_wins, misloc_wins,
                             queries=queries, hits=hits,
                             localized=localized, sessions=sessions,
                             handovers=handovers,
                             unsampled_queries=(queries - sampled_queries
                                                if tracing else 0))

    return DistrictStats(
        queries=queries, sessions=sessions, active_ues=active, hits=hits,
        localized=localized, handovers=handovers, cache_load=cache_load,
        dns=dns_hist, total=total_hist)


def _noop_append(_value: float) -> None:  # pragma: no cover - placeholder
    """Placeholder bound before the first query initialises the window
    cache; never called (the first query always misses the cache)."""


def _bucket_windows(vals_by_window: Dict[int, List[float]],
                    ) -> Dict[int, List[Any]]:
    """Turn raw per-window value lists into ``[count, sum, buckets]``.

    The sum is taken in chronological (arrival) order *before* sorting,
    matching what incremental accumulation would have produced; bucket
    counts then come from ``bisect_right`` cuts of the sorted array —
    one bisect per bound per window instead of one per value, which is
    what lets the hot loop get away with plain appends.
    """
    buckets = DEFAULT_BUCKETS
    cells: Dict[int, List[Any]] = {}
    for window, vals in vals_by_window.items():
        total = sum(vals)
        vals.sort()
        n = len(vals)
        counts = [0] * len(buckets)
        prev = 0
        for at, bound in enumerate(buckets):
            if prev >= n:
                break
            cut = bisect_right(vals, bound)
            if cut != prev:
                counts[at] = cut - prev
                prev = cut
        cells[window] = [n, total, counts]
    return cells


def _site_major(wins: Dict[int, List[int]]) -> List[Dict[int, int]]:
    """Pivot window-major count rows into per-site window dicts."""
    sites = len(next(iter(wins.values()))) if wins else 0
    per_site: List[Dict[int, int]] = [{} for _ in range(sites)]
    for window, counts in wins.items():
        for site_index, count in enumerate(counts):
            if count:
                per_site[site_index][window] = count
    return per_site


def _flush_observability(tel: Any, deployment: str,
                         dns_vals: Dict[int, List[float]],
                         total_vals: Dict[int, List[float]],
                         query_wins: Dict[int, List[int]],
                         misloc_wins: Dict[int, List[int]],
                         queries: int, hits: int, localized: int,
                         sessions: int, handovers: int,
                         unsampled_queries: int) -> None:
    """Fold one district's locally-aggregated windows into the facade.

    Runs once per district (cold path); the counter rows are
    window-major int lists indexed by site.
    """
    label = {"deployment": deployment}
    timeseries = tel.timeseries
    if dns_vals:
        timeseries.bulk_observe("repro_workload_dns_ms", label,
                                _bucket_windows(dns_vals))
    if total_vals:
        timeseries.bulk_observe("repro_workload_total_ms", label,
                                _bucket_windows(total_vals))
    for name, wins in (("repro_workload_queries", query_wins),
                       ("repro_workload_mislocalized", misloc_wins)):
        for site_index, windows in enumerate(_site_major(wins)):
            if windows:
                timeseries.bulk_count(name,
                                      {"deployment": deployment,
                                       "site": str(site_index)},
                                      windows)
    tel.tracer.sampled_out += unsampled_queries
    metrics = tel.metrics
    metrics.counter("repro_workload_queries_total",
                    "Queries driven by the population engine").inc(
                        queries, deployment=deployment)
    metrics.counter("repro_workload_hits_total",
                    "Cache hits at the selected cache").inc(
                        hits, deployment=deployment)
    metrics.counter("repro_workload_mislocalized_total",
                    "Queries served from a cache off the UE's site").inc(
                        queries - localized, deployment=deployment)
    metrics.counter("repro_workload_sessions_total",
                    "Sessions the arrival process produced").inc(
                        sessions, deployment=deployment)
    metrics.counter("repro_workload_handovers_total",
                    "Mid-session inter-site handovers").inc(
                        handovers, deployment=deployment)


def district_seed(base: int, deployment: str, shard: int) -> int:
    """The population seed for ``shard`` of ``deployment``'s sweep."""
    return derive_seed(base, "district", deployment, shard)
