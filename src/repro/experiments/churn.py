"""Churn experiment: resolution quality while the control plane moves.

Figure 5's testbeds are frozen; this extension measures them while the
cache fleet churns underneath (scale-up, a full rolling restart, a
scale-down — :func:`repro.control.churn.default_schedule`) and the zone
data chases the cluster through the NOTIFY/IXFR control plane of
:mod:`repro.control`.  A UE handover between cells happens mid-session
in every cell, so the handover-vs-staleness attribution is always live.

Three quantities per cell:

* **staleness window** — update to the last answer still carrying a
  removed endpoint;
* **mislocalization rate** — answers pointing at endpoints no longer
  live (overall, and inside propagation windows);
* the **serve-stale overlap** — RFC 8767 stale answers served while a
  zone version was still propagating (the CoreDNS cache plugin's
  ``stale_served_during_churn`` counter).

Scenarios compose churn with the PR-1 fault kinds:

* ``churn-only`` — every Figure 5 deployment, no faults.  The paper's
  integrated design propagates in ~0.1 s; warmed public resolvers (the
  "A record never expires" deployments) never learn and mislocalize
  for the rest of the run;
* ``cdns-crash`` — the C-DNS **and** the CDN origin crash through the
  rollout.  The resilient stack answers from RFC 8767 stale cache
  entries while the new zone version cannot propagate — the measured
  serve-stale × propagation-delay interaction;
* ``mec-partition`` — the cluster (including the zone secondary) is
  cut off across two updates.  With the journal bounded at depth 1 the
  secondary's serial ages out and recovery is a full AXFR, not a diff;
* ``origin-brownout`` — the origin is up but pathologically slow, so
  propagation (and only propagation) degrades: availability holds
  while mislocalization soars.

One fault cell is replayed twice with the same seed; its digests must
match byte-for-byte, and serial and sharded runs of the whole grid
produce identical results.
"""

from __future__ import annotations

from typing import Dict, Generator, List, NamedTuple, Tuple

from repro.control import ControlPlane, default_schedule
from repro.control.plane import PRIMARY_HOST
from repro.core.deployments import (DEPLOYMENT_KEYS, ResilienceConfig,
                                    Testbed, build_testbed)
from repro.experiments.report import format_table
from repro.faults import FaultPlan, inject
from repro.measure.stats import percentile
from repro.mobile.handoff import HandoffController
from repro.resolver.retry import RetryPolicy
from repro.runtime import Experiment, Param

#: Measured lookups per cell (after warmup).
DEFAULT_QUERIES = 40
WARMUP_QUERIES = 2
SPACING_MS = 200.0

#: Deadline-based availability, as in the resilience experiment.
DEADLINE_MS = 800.0

#: Journal depth for the churn control plane: deliberately 1, so any
#: fault window spanning two updates forces the AXFR fallback path.
CONTROL_JOURNAL_DEPTH = 1

#: Mid-session handover (between the rollout and the scale-down).
HANDOFF_AT_MS = 3000.0

#: Fault windows, composed with the churn schedule.
FAULT_AT_MS = 2000.0
CRASH_DURATION_MS = 2500.0
PARTITION_DURATION_MS = 5000.0
BROWNOUT_AT_MS = 1000.0
BROWNOUT_SLOW_MS = 1500.0
BROWNOUT_DURATION_MS = 6000.0

#: Baseline client, as in the resilience experiment.
BASELINE_TIMEOUT_MS = 1000.0
BASELINE_RETRIES = 1

MODES = ("baseline", "resilient")
FAULT_SCENARIOS = ("cdns-crash", "mec-partition", "origin-brownout")
FAULT_DEPLOYMENT = "mec-ldns-mec-cdns"
WARMED_DEPLOYMENTS = ("lan-ldns", "google-dns", "cloudflare-dns")


class ChurnRow(NamedTuple):
    """One (scenario, deployment, mode) cell of the churn grid."""

    scenario: str
    deployment: str
    mode: str
    queries: int
    answered: int
    availability: float          # answered within DEADLINE_MS / queries
    p50_ms: float
    p95_ms: float
    updates: int                 # registry versions published
    applied: int                 # versions that reached the router view
    prop_delay_max_ms: float     # slowest update-to-applied propagation
    max_staleness_ms: float      # widest update staleness window
    mean_staleness_ms: float
    misloc_rate: float           # mislocalized / answered, whole run
    lookups_in_window: int       # lookups inside propagation windows
    mislocalized_in_window: int
    stale_during_churn: int      # RFC 8767 stale served inside windows
    axfr_fallbacks: int          # IXFRs answered as full AXFR (aged out)
    handoffs: int
    post_handoff_lookups: int
    mislocalized_after_handoff: int


class ChurnResult(NamedTuple):
    """The churn grid plus its determinism evidence."""

    rows: List[ChurnRow]
    #: "scenario/deployment/mode" -> fault + churn + propagation lines.
    timelines: Dict[str, List[str]]
    #: Replayed cell: check name -> (first digest, second digest).
    replays: Dict[str, Tuple[str, str]]
    queries: int

    def row(self, scenario: str, deployment: str, mode: str) -> ChurnRow:
        """The unique cell for (scenario, deployment, mode)."""
        for row in self.rows:
            if (row.scenario, row.deployment, row.mode) == (
                    scenario, deployment, mode):
                return row
        raise KeyError(f"no cell {scenario}/{deployment}/{mode}")

    def render(self) -> str:
        """The churn grid as an aligned text table."""
        body = [[row.scenario, row.deployment, row.mode,
                 f"{row.availability:.2f}",
                 f"{row.p50_ms:.1f}", f"{row.p95_ms:.1f}",
                 f"{row.misloc_rate:.2f}",
                 f"{row.max_staleness_ms:.0f}",
                 f"{row.prop_delay_max_ms:.0f}",
                 str(row.stale_during_churn), str(row.axfr_fallbacks),
                 f"{row.mislocalized_after_handoff}"
                 f"/{row.post_handoff_lookups}"]
                for row in self.rows]
        table = format_table(
            ["scenario", "deployment", "mode", "avail", "p50 ms",
             "p95 ms", "misloc", "stale ms", "prop ms", "rfc8767",
             "axfr-fb", "ho-mis"],
            body,
            title=f"Resolution under control-plane churn "
                  f"({self.queries} queries/cell, deadline "
                  f"{DEADLINE_MS:.0f} ms)")
        lines = [table, "", "event timelines:"]
        for key, timeline in sorted(self.timelines.items()):
            lines.append(f"  {key}:")
            lines.extend(f"    {event}" for event in timeline)
        return "\n".join(lines)


def _resilient_policy() -> RetryPolicy:
    """The hardened client, as in the resilience experiment."""
    return RetryPolicy(retries=3, timeout_ms=250.0, backoff=2.0,
                       max_timeout_ms=1000.0, jitter_frac=0.1,
                       hedge_after_ms=120.0)


def _client_stub(testbed: Testbed, mode: str):
    if mode == "resilient":
        return testbed.ue.stub(policy=_resilient_policy())
    return testbed.ue.stub(timeout=BASELINE_TIMEOUT_MS,
                           retries=BASELINE_RETRIES)


def _cluster_host_names(testbed: Testbed,
                        plane: ControlPlane) -> List[str]:
    """MEC cluster hosts plus the zone secondary (the partition group)."""
    names = []
    assert testbed.mec_site is not None
    for node in testbed.mec_site.orchestrator.nodes:
        names.append(node.host.name)
        names.extend(pod.host.name for pod in node.pods)
    names.append(plane.secondary_host_name)
    return sorted(names)


def _fault_plan(scenario: str, testbed: Testbed,
                plane: ControlPlane) -> FaultPlan:
    plan = FaultPlan()
    if scenario == "churn-only":
        return plan
    if scenario == "cdns-crash":
        assert testbed.mec_site is not None
        plan.crash_host(testbed.mec_site.cdns_pod.host.name,
                        FAULT_AT_MS, CRASH_DURATION_MS)
        plan.crash_host(PRIMARY_HOST, FAULT_AT_MS, CRASH_DURATION_MS)
        return plan
    if scenario == "mec-partition":
        plan.partition(_cluster_host_names(testbed, plane),
                       FAULT_AT_MS, PARTITION_DURATION_MS)
        return plan
    if scenario == "origin-brownout":
        plan.brownout_host(PRIMARY_HOST, BROWNOUT_AT_MS,
                           BROWNOUT_SLOW_MS, BROWNOUT_DURATION_MS)
        return plan
    raise ValueError(f"unknown scenario {scenario!r}")


def _churn_cell(scenario: str, deployment: str, mode: str, queries: int,
                seed: int) -> Tuple[ChurnRow, List[str], str]:
    """Build, churn, injure, hand over, and measure one deployment."""
    resilience = ResilienceConfig() if mode == "resilient" else None
    testbed = build_testbed(deployment, seed=seed, resilience=resilience)
    plane = ControlPlane(testbed, journal_depth=CONTROL_JOURNAL_DEPTH)
    plane.add_churn(default_schedule())
    injector = inject(testbed.network, _fault_plan(scenario, testbed,
                                                   plane))
    target_enb = testbed.epc.add_base_station("enb-2", "10.40.1.2")
    controller = HandoffController(testbed.network)
    sim = testbed.sim
    sim.call_at(HANDOFF_AT_MS,
                lambda: controller.handoff(testbed.ue, target_enb))

    stub = _client_stub(testbed, mode)
    lookups: List[Tuple[float, float, str, Tuple[str, ...], bool, bool]] \
        = []

    def driver() -> Generator:
        for index in range(WARMUP_QUERIES + queries):
            started = sim.now
            try:
                result = yield from stub.query(testbed.query_name)
            except Exception:  # noqa: BLE001 - failures are data here
                latency, status = sim.now - started, "TIMEOUT"
                addresses: Tuple[str, ...] = ()
                stale = False
            else:
                latency, status = result.query_time_ms, result.status
                addresses = tuple(result.addresses)
                stale = result.stale
            if index >= WARMUP_QUERIES:
                mislocalized = plane.monitor.note_answer(
                    sim.now, addresses, stale)
                if controller.handoffs:
                    controller.note_post_handoff_lookup(testbed.ue,
                                                        mislocalized)
                lookups.append((started, latency, status, addresses,
                                stale, mislocalized))
            yield SPACING_MS

    sim.run_until_resolved(sim.spawn(driver()))

    monitor = plane.monitor
    usable = [entry for entry in lookups
              if entry[2] == "NOERROR" and entry[3]]
    within = [entry for entry in usable if entry[1] <= DEADLINE_MS]
    latencies = [entry[1] for entry in lookups]
    assert testbed.mec_site is not None
    cache_plugin = testbed.mec_site.ldns.cache_plugin
    delays = [record.delay_ms
              for record in plane.coordinator.records.values()
              if record.delay_ms is not None]
    row = ChurnRow(
        scenario=scenario, deployment=deployment, mode=mode,
        queries=len(lookups), answered=len(usable),
        availability=(len(within) / len(lookups) if lookups else 0.0),
        p50_ms=percentile(latencies, 50),
        p95_ms=percentile(latencies, 95),
        updates=len(plane.registry.updates),
        applied=len(delays),
        prop_delay_max_ms=max(delays) if delays else 0.0,
        max_staleness_ms=monitor.max_staleness_ms,
        mean_staleness_ms=monitor.mean_staleness_ms,
        misloc_rate=monitor.mislocalization_rate,
        lookups_in_window=monitor.lookups_in_window,
        mislocalized_in_window=monitor.mislocalized_in_window,
        stale_during_churn=(cache_plugin.stale_served_during_churn
                            if cache_plugin is not None else 0),
        axfr_fallbacks=plane.primary.ixfr_axfr_fallbacks,
        handoffs=controller.handoffs,
        post_handoff_lookups=controller.post_handoff_lookups,
        mislocalized_after_handoff=controller.mislocalized_after_handoff)
    timeline = list(injector.timeline) + plane.log()
    digest_lines = list(timeline)
    for started, latency, status, addresses, stale, mislocalized \
            in lookups:
        digest_lines.append(
            f"t={started:.6f} lat={latency:.6f} {status} "
            f"[{','.join(addresses)}] stale={stale} mis={mislocalized}")
    return row, timeline, "\n".join(digest_lines)


# ---------------------------------------------------------------------------
# Experiment entry points
# ---------------------------------------------------------------------------

class ChurnExperiment(Experiment):
    """The churn grid, one trial per (scenario, deployment, mode) cell.

    Every cell builds its own churned, faulted testbed from the base
    seed, so sharding cannot change any measured value; the replay
    cells rerun one fault cell twice and ``merge`` pairs their digests
    into the published determinism evidence.
    """

    name = "churn"
    title = "dynamic control plane: churn, handover, and faults"
    params = (Param("queries", int, DEFAULT_QUERIES,
                    "measured lookups per cell"),
              Param("seed", int, 42, "base RNG seed"))

    def trials(self, params):
        queries = int(params["queries"])
        base = int(params["seed"])
        specs = []
        for deployment in DEPLOYMENT_KEYS:
            specs.append(self.spec(
                len(specs), seed=base, kind="deploy",
                deployment=deployment, queries=queries))
        for scenario in FAULT_SCENARIOS:
            for mode in MODES:
                specs.append(self.spec(
                    len(specs), seed=base, kind="fault",
                    scenario=scenario, mode=mode, queries=queries))
        for which in (1, 2):
            specs.append(self.spec(len(specs), seed=base, kind="replay",
                                   which=which, queries=queries))
        return specs

    def run_trial(self, spec):
        kind = str(spec.value("kind"))
        queries = int(spec.value("queries"))
        if kind == "deploy":
            deployment = str(spec.value("deployment"))
            row, timeline, _ = _churn_cell("churn-only", deployment,
                                           "resilient", queries,
                                           spec.seed)
            return ("deploy", deployment, row, timeline)
        if kind == "fault":
            scenario = str(spec.value("scenario"))
            mode = str(spec.value("mode"))
            row, timeline, _ = _churn_cell(scenario, FAULT_DEPLOYMENT,
                                           mode, queries, spec.seed)
            return ("fault", scenario, mode, row, timeline)
        _, _, digest = _churn_cell("cdns-crash", FAULT_DEPLOYMENT,
                                   "resilient", queries, spec.seed)
        return ("replay", int(spec.value("which")), digest)

    def merge(self, params, payloads):
        rows: List[ChurnRow] = []
        timelines: Dict[str, List[str]] = {}
        digests: Dict[int, str] = {}
        for payload in payloads:
            kind = payload[0]
            if kind == "deploy":
                _, deployment, row, timeline = payload
                rows.append(row)
                timelines[f"churn-only/{deployment}/resilient"] = timeline
            elif kind == "fault":
                _, scenario, mode, row, timeline = payload
                rows.append(row)
                timelines[f"{scenario}/{FAULT_DEPLOYMENT}/{mode}"] = \
                    timeline
            else:
                _, which, digest = payload
                digests[which] = digest
        replays = {f"cdns-crash/{FAULT_DEPLOYMENT}/resilient":
                   (digests[1], digests[2])}
        return ChurnResult(rows=rows, timelines=timelines,
                           replays=replays,
                           queries=int(params["queries"]))

    def check_shape(self, result):
        """Shape claims the churn grid must satisfy; violations returned."""
        claims: List[str] = []

        def fail(text: str) -> None:
            claims.append(text)

        # -- churn-only: the deployment gradient --------------------------------
        integrated = result.row("churn-only", "mec-ldns-mec-cdns", "resilient")
        for deployment in DEPLOYMENT_KEYS:
            try:
                row = result.row("churn-only", deployment, "resilient")
            except KeyError:
                fail(f"missing churn-only cell for {deployment}")
                continue
            if row.updates < 3:
                fail(f"churn-only {deployment} should see 3 registry "
                     f"updates (got {row.updates})")
            if row.handoffs != 1 or row.post_handoff_lookups == 0:
                fail(f"churn-only {deployment} should hand over once "
                     f"mid-session and attribute post-handoff lookups")
        if integrated.applied < integrated.updates:
            fail(f"integrated deployment should apply every update "
                 f"({integrated.applied}/{integrated.updates})")
        if integrated.prop_delay_max_ms > 1000.0:
            fail(f"clean NOTIFY/IXFR propagation should finish within 1 s "
                 f"(got {integrated.prop_delay_max_ms:.0f} ms)")
        for deployment in WARMED_DEPLOYMENTS:
            warmed = result.row("churn-only", deployment, "resilient")
            if warmed.misloc_rate < integrated.misloc_rate + 0.3:
                fail(f"warmed {deployment} should mislocalize far more than "
                     f"the integrated design under a rollout "
                     f"({warmed.misloc_rate:.2f} vs "
                     f"{integrated.misloc_rate:.2f})")
            if warmed.max_staleness_ms < 2000.0:
                fail(f"warmed {deployment} staleness window should exceed "
                     f"2 s (got {warmed.max_staleness_ms:.0f} ms)")

        # -- cdns-crash: serve-stale x propagation interaction ------------------
        crash_base = result.row("cdns-crash", FAULT_DEPLOYMENT, "baseline")
        crash_hard = result.row("cdns-crash", FAULT_DEPLOYMENT, "resilient")
        if crash_hard.stale_during_churn < 1:
            fail("resilient cdns-crash should serve RFC 8767 stale answers "
                 "inside the propagation window")
        if crash_base.stale_during_churn != 0:
            fail("baseline (no serve-stale) cannot serve stale answers "
                 f"(got {crash_base.stale_during_churn})")

        # -- mec-partition: bounded journal forces AXFR -------------------------
        for mode in MODES:
            part = result.row("mec-partition", FAULT_DEPLOYMENT, mode)
            if part.axfr_fallbacks < 1:
                fail(f"partition/{mode}: the depth-1 journal should force "
                     f"an AXFR fallback on recovery")
            if part.prop_delay_max_ms < 1000.0:
                fail(f"partition/{mode}: propagation through the partition "
                     f"should take > 1 s "
                     f"(got {part.prop_delay_max_ms:.0f} ms)")
        part_base = result.row("mec-partition", FAULT_DEPLOYMENT, "baseline")
        if part_base.availability >= 0.95:
            fail(f"partition should dent baseline availability "
                 f"(got {part_base.availability:.2f})")

        # -- origin-brownout: propagation-only degradation ----------------------
        for mode in MODES:
            brown = result.row("origin-brownout", FAULT_DEPLOYMENT, mode)
            if brown.availability < 0.9:
                fail(f"brownout/{mode}: a slow origin must not dent lookup "
                     f"availability (got {brown.availability:.2f})")
        brown_hard = result.row("origin-brownout", FAULT_DEPLOYMENT,
                                "resilient")
        if brown_hard.max_staleness_ms < 1000.0:
            fail(f"brownout should stretch the staleness window past 1 s "
                 f"(got {brown_hard.max_staleness_ms:.0f} ms)")
        if brown_hard.max_staleness_ms <= integrated.max_staleness_ms:
            fail("brownout staleness should exceed the clean-churn window")

        # -- determinism --------------------------------------------------------
        for key, (first, second) in result.replays.items():
            if first != second:
                fail(f"replay of {key} with the same seed diverged")
        for key in (f"cdns-crash/{FAULT_DEPLOYMENT}/resilient",
                    f"mec-partition/{FAULT_DEPLOYMENT}/baseline"):
            if not result.timelines.get(key):
                fail(f"timeline for {key} should not be empty")
        return claims


EXPERIMENT = ChurnExperiment()
