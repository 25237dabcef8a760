"""Chaos experiment: the six deployments under injected faults (extension).

Figure 5 measures the deployments on a healthy network.  §3 of the paper
argues the MEC-integrated design must also *survive* — "have DNS
requests ... be forwarded to L-DNS on timeout from MEC DNS" — but never
quantifies what failure costs.  This experiment does, replaying three
fault scenarios from :mod:`repro.faults` against the testbeds:

* ``cdns-crash`` — the CDN's authoritative C-DNS crashes for 20 s.  The
  MEC deployments route every query through it (TTL-0 answers), so the
  baseline loses availability; the warmed-L-DNS deployments never leave
  their cache and are immune — which is precisely the paper's point
  about established CDN domains.  The resilient variant (short upstream
  timeout, TTL-2 answers, RFC 8767 serve-stale) keeps answering from
  stale state.
* ``mec-partition`` — the whole MEC cluster is cut off.  Serve-stale
  cannot help (the resolver itself is unreachable); the §3 mitigation —
  a client that falls back to the provider L-DNS on timeout — can.
* ``lte-burst-loss`` — Gilbert–Elliott burst loss on the radio link.
  The resilient client's backoff retries and hedged queries trade a few
  duplicate packets for a collapsed tail.

Availability is deadline-based: a lookup counts only if it returned
usable addresses within :data:`DEADLINE_MS` (a streaming player that
waits longer than that rebuffers anyway).  Fault timelines are recorded
per cell, and one cell is replayed with the same seed to prove the whole
run — fault firing and measurements — is byte-for-byte deterministic.
"""

from __future__ import annotations

from typing import Dict, Generator, List, NamedTuple, Tuple

from repro.core.deployments import (DEPLOYMENT_KEYS, ResilienceConfig,
                                    Testbed, add_provider_ldns, build_testbed)
from repro.core.fallback import FallbackClient
from repro.experiments.report import format_table
from repro.faults import FaultPlan, inject
from repro.measure.runner import MeasurementRun, measure_deployment_run
from repro.measure.stats import percentile
from repro.resolver.retry import RetryPolicy
from repro.runtime import Experiment, Param

#: A lookup is "available" only if it returned addresses within this
#: deadline: past it, a streaming client has already rebuffered.
DEADLINE_MS = 800.0

#: Fault window shared by the crash and partition scenarios.
FAULT_AT_MS = 2000.0
FAULT_DURATION_MS = 20000.0

#: Inter-query spacing for the sequential measurement driver.
SPACING_MS = 200.0
WARMUP_QUERIES = 2

#: The baseline client: the Figure 5 stub with an impatient but plain
#: timeout/retry pair, no backoff, no hedging, no stale tolerance.
BASELINE_TIMEOUT_MS = 1000.0
BASELINE_RETRIES = 1

#: Gilbert–Elliott radio parameters for ``lte-burst-loss`` (~19% packet
#: loss in bursts averaging four back-to-back traversals).
BURST_P_ENTER = 0.06
BURST_P_EXIT = 0.25
BURST_BAD_LOSS = 0.95
BURST_GOOD_LOSS = 0.02

#: Which host dies in the ``cdns-crash`` scenario.  The warmed-resolver
#: deployments have no C-DNS in the measured path (the A record "never
#: expires at L-DNS"), so there is nothing to crash: their immunity is
#: the experiment's control group, not an omission.
_CRASH_HOSTS = {
    "mec-ldns-lan-cdns": "lan-cdns",
    "mec-ldns-wan-cdns": "wan-cdns",
}

MODES = ("baseline", "resilient")
SCENARIOS = ("cdns-crash", "mec-partition", "lte-burst-loss")


class ScenarioRow(NamedTuple):
    """One (scenario, deployment, mode) cell of the chaos grid."""

    scenario: str
    deployment: str
    mode: str
    queries: int
    answered: int          # lookups that returned usable addresses at all
    availability: float    # answered within DEADLINE_MS / queries
    p50_ms: float          # over every lookup, failures at their full cost
    p95_ms: float
    stale_answers: int     # RFC 8767 answers served past their TTL
    fallback_answers: int  # lookups answered by the provider L-DNS
    timeouts: int          # per-attempt timeouts burned by the client
    mean_attempts: float   # transmissions per lookup (1.0 = no retries)


class ResilienceResult(NamedTuple):
    """The chaos grid plus the determinism evidence behind it."""

    rows: List[ScenarioRow]
    #: "scenario/deployment/mode" -> the injector's fault timeline.
    timelines: Dict[str, List[str]]
    #: Replayed cells: check name -> (first run digest, second run digest).
    replays: Dict[str, Tuple[str, str]]
    queries: int

    def row(self, scenario: str, deployment: str, mode: str) -> ScenarioRow:
        """The unique cell for (scenario, deployment, mode)."""
        for row in self.rows:
            if (row.scenario, row.deployment, row.mode) == (
                    scenario, deployment, mode):
                return row
        raise KeyError(f"no cell {scenario}/{deployment}/{mode}")

    def render(self) -> str:
        """The chaos grid as a fixed-width table."""
        body = [[row.scenario, row.deployment, row.mode,
                 f"{row.availability:.2f}",
                 f"{row.p50_ms:.1f}", f"{row.p95_ms:.1f}",
                 str(row.stale_answers), str(row.fallback_answers),
                 str(row.timeouts), f"{row.mean_attempts:.2f}"]
                for row in self.rows]
        table = format_table(
            ["scenario", "deployment", "mode", "avail",
             "p50 ms", "p95 ms", "stale", "fallback", "t/o", "att"],
            body,
            title=f"Resilience under injected faults "
                  f"({self.queries} queries/cell, "
                  f"deadline {DEADLINE_MS:.0f} ms)")
        lines = [table, "", "fault timelines:"]
        for key, timeline in sorted(self.timelines.items()):
            events = "; ".join(timeline) if timeline else "(no faults)"
            lines.append(f"  {key}: {events}")
        return "\n".join(lines)


def _resilient_policy() -> RetryPolicy:
    """The hardened client: short timeouts, backoff, jitter, hedging."""
    return RetryPolicy(retries=3, timeout_ms=250.0, backoff=2.0,
                       max_timeout_ms=1000.0, jitter_frac=0.1,
                       hedge_after_ms=120.0)


def _client_stub(testbed: Testbed, mode: str):
    """The per-mode client against ``testbed``'s configured resolver."""
    if mode == "resilient":
        return testbed.ue.stub(policy=_resilient_policy())
    return testbed.ue.stub(timeout=BASELINE_TIMEOUT_MS,
                           retries=BASELINE_RETRIES)


def _row_from_run(scenario: str, deployment: str, mode: str,
                  run: MeasurementRun) -> ScenarioRow:
    """Collapse a measurement run into one grid cell."""
    measurements = run.measurements
    usable = [m for m in measurements
              if m.status == "NOERROR" and m.addresses]
    within = [m for m in usable if m.latency_ms <= DEADLINE_MS]
    latencies = [m.latency_ms for m in measurements]
    return ScenarioRow(
        scenario=scenario, deployment=deployment, mode=mode,
        queries=len(measurements), answered=len(usable),
        availability=(len(within) / len(measurements)
                      if measurements else 0.0),
        p50_ms=percentile(latencies, 50), p95_ms=percentile(latencies, 95),
        stale_answers=sum(1 for m in measurements if m.stale),
        fallback_answers=0,
        timeouts=run.retries.timeouts_seen,
        mean_attempts=run.retries.mean_attempts)


def _digest(timeline: List[str], run: MeasurementRun) -> str:
    """A byte-for-byte fingerprint of faults fired and lookups measured."""
    lines = list(timeline)
    for m in run.measurements:
        lines.append(f"t={m.started_at:.6f} lat={m.latency_ms:.6f} "
                     f"{m.status} [{','.join(m.addresses)}] "
                     f"att={m.attempts} stale={m.stale}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Scenario cells
# ---------------------------------------------------------------------------

def _crash_cell(deployment: str, mode: str, queries: int,
                seed: int) -> Tuple[ScenarioRow, List[str], str]:
    """C-DNS crash: build, injure, measure one deployment."""
    resilience = ResilienceConfig() if mode == "resilient" else None
    testbed = build_testbed(deployment, seed=seed, resilience=resilience)
    plan = FaultPlan()
    target = _crash_target(testbed)
    if target is not None:
        plan.crash_host(target, FAULT_AT_MS, FAULT_DURATION_MS)
    injector = inject(testbed.network, plan)
    run = measure_deployment_run(testbed, queries, spacing_ms=SPACING_MS,
                                 warmup=WARMUP_QUERIES,
                                 stub=_client_stub(testbed, mode))
    row = _row_from_run("cdns-crash", deployment, mode, run)
    return row, injector.timeline, _digest(injector.timeline, run)


def _crash_target(testbed: Testbed) -> str:
    """The C-DNS host in this deployment's resolution path, if any."""
    if testbed.key == "mec-ldns-mec-cdns":
        return testbed.mec_site.cdns_pod.host.name
    return _CRASH_HOSTS.get(testbed.key)


def _cluster_host_names(testbed: Testbed) -> List[str]:
    """Every host inside the MEC cluster: k8s nodes plus their pods."""
    names = []
    for node in testbed.mec_site.orchestrator.nodes:
        names.append(node.host.name)
        names.extend(pod.host.name for pod in node.pods)
    return sorted(names)


def _partition_cell(mode: str, queries: int,
                    seed: int) -> Tuple[ScenarioRow, List[str]]:
    """MEC cluster partition against the all-MEC deployment."""
    testbed = build_testbed("mec-ldns-mec-cdns", seed=seed)
    plan = FaultPlan().partition(_cluster_host_names(testbed),
                                 FAULT_AT_MS, FAULT_DURATION_MS)
    injector = inject(testbed.network, plan)
    if mode == "baseline":
        run = measure_deployment_run(testbed, queries, spacing_ms=SPACING_MS,
                                     warmup=WARMUP_QUERIES,
                                     stub=_client_stub(testbed, mode))
        return (_row_from_run("mec-partition", "mec-ldns-mec-cdns",
                              mode, run),
                injector.timeline)
    row = _measure_with_fallback(testbed, queries)
    return row, injector.timeline


def _measure_with_fallback(testbed: Testbed, queries: int) -> ScenarioRow:
    """Drive §3's timeout-fallback client through the partition window."""
    provider = add_provider_ldns(testbed)
    client = FallbackClient(testbed.network, testbed.ue.host,
                            mec_dns=testbed.ue.dns,
                            provider_ldns=provider.endpoint,
                            mec_timeout=300.0, total_timeout=2000.0)
    sim = testbed.sim
    records: List[Tuple[float, str, List[str], bool]] = []

    def driver() -> Generator:
        """Sequential lookups, recording fallback use per lookup."""
        for index in range(WARMUP_QUERIES + queries):
            started = sim.now
            try:
                result = yield from client.timeout_fallback(
                    testbed.query_name)
            except Exception:  # noqa: BLE001 - failures are data here
                if index >= WARMUP_QUERIES:
                    records.append((sim.now - started, "TIMEOUT", [], False))
            else:
                if index >= WARMUP_QUERIES:
                    records.append((result.latency_ms, result.status,
                                    result.addresses, result.used_fallback))
            yield SPACING_MS

    sim.run_until_resolved(sim.spawn(driver()))
    latencies = [latency for latency, _, _, _ in records]
    usable = [(latency, status, addresses)
              for latency, status, addresses, _ in records
              if status == "NOERROR" and addresses]
    fallbacks = sum(1 for _, _, _, used in records if used)
    return ScenarioRow(
        scenario="mec-partition", deployment="mec-ldns-mec-cdns",
        mode="resilient", queries=len(records), answered=len(usable),
        availability=(sum(1 for latency, _, _ in usable
                          if latency <= DEADLINE_MS) / len(records)
                      if records else 0.0),
        p50_ms=percentile(latencies, 50), p95_ms=percentile(latencies, 95),
        stale_answers=0, fallback_answers=fallbacks,
        timeouts=fallbacks,  # each fallback burned exactly one MEC timeout
        mean_attempts=((len(records) + fallbacks) / len(records)
                       if records else 0.0))


def _burst_cell(mode: str, queries: int,
                seed: int) -> Tuple[ScenarioRow, List[str]]:
    """Gilbert–Elliott burst loss on the UE's radio link."""
    testbed = build_testbed("mec-ldns-mec-cdns", seed=seed)
    plan = FaultPlan().burst_loss(
        testbed.ue.host.name, "enb-1", at_ms=0.0,
        p_enter=BURST_P_ENTER, p_exit=BURST_P_EXIT,
        bad_loss=BURST_BAD_LOSS, good_loss=BURST_GOOD_LOSS)
    injector = inject(testbed.network, plan)
    run = measure_deployment_run(testbed, queries, spacing_ms=SPACING_MS,
                                 warmup=WARMUP_QUERIES,
                                 stub=_client_stub(testbed, mode))
    return (_row_from_run("lte-burst-loss", "mec-ldns-mec-cdns", mode, run),
            injector.timeline)


# ---------------------------------------------------------------------------
# Experiment entry points
# ---------------------------------------------------------------------------

class ResilienceExperiment(Experiment):
    """The chaos grid, one trial per (scenario, deployment, mode) cell.

    Every cell builds its own faulted testbed from the base seed — the
    historical loop did exactly that — so sharding cannot change any
    measured value.  The two determinism-replay runs are cells too
    (``kind="replay"``), each contributing one digest; ``merge`` pairs
    them back into the published ``replays`` evidence.
    """

    name = "resilience"
    title = "§3 chaos grid: the deployments under injected faults"
    params = (Param("queries", int, 40, "measured lookups per cell"),
              Param("seed", int, 42, "base RNG seed"))

    def trials(self, params):
        queries = int(params["queries"])
        base = int(params["seed"])
        specs = []
        for deployment in DEPLOYMENT_KEYS:
            for mode in MODES:
                specs.append(self.spec(
                    len(specs), seed=base, kind="crash",
                    deployment=deployment, mode=mode, queries=queries))
        for mode in MODES:
            specs.append(self.spec(len(specs), seed=base, kind="partition",
                                   mode=mode, queries=queries))
        for mode in MODES:
            specs.append(self.spec(len(specs), seed=base, kind="burst",
                                   mode=mode, queries=queries))
        for which in (1, 2):
            specs.append(self.spec(len(specs), seed=base, kind="replay",
                                   which=which, queries=queries))
        return specs

    def run_trial(self, spec):
        kind = str(spec.value("kind"))
        queries = int(spec.value("queries"))
        if kind == "crash":
            deployment = str(spec.value("deployment"))
            mode = str(spec.value("mode"))
            row, timeline, _ = _crash_cell(deployment, mode, queries,
                                           spec.seed)
            return ("crash", deployment, mode, row, timeline)
        if kind == "partition":
            mode = str(spec.value("mode"))
            row, timeline = _partition_cell(mode, queries, spec.seed)
            return ("partition", mode, row, timeline)
        if kind == "burst":
            mode = str(spec.value("mode"))
            row, timeline = _burst_cell(mode, queries, spec.seed)
            return ("burst", mode, row, timeline)
        _, _, digest = _crash_cell("mec-ldns-mec-cdns", "resilient",
                                   queries, spec.seed)
        return ("replay", int(spec.value("which")), digest)

    def merge(self, params, payloads):
        rows: List[ScenarioRow] = []
        timelines: Dict[str, List[str]] = {}
        digests: Dict[int, str] = {}
        for payload in payloads:
            kind = payload[0]
            if kind == "crash":
                _, deployment, mode, row, timeline = payload
                rows.append(row)
                timelines[f"cdns-crash/{deployment}/{mode}"] = timeline
            elif kind == "partition":
                _, mode, row, timeline = payload
                rows.append(row)
                timelines[f"mec-partition/mec-ldns-mec-cdns/{mode}"] = \
                    timeline
            elif kind == "burst":
                _, mode, row, timeline = payload
                rows.append(row)
                timelines[f"lte-burst-loss/mec-ldns-mec-cdns/{mode}"] = \
                    timeline
            else:
                _, which, digest = payload
                digests[which] = digest
        replays = {"cdns-crash/mec-ldns-mec-cdns/resilient":
                   (digests[1], digests[2])}
        return ResilienceResult(rows=rows, timelines=timelines,
                                replays=replays,
                                queries=int(params["queries"]))

    def check_shape(self, result):
        """Shape claims the chaos grid must satisfy; violations returned."""
        claims: List[str] = []

        def fail(text: str) -> None:
            claims.append(text)

        # -- cdns-crash ---------------------------------------------------------
        mec_keys = ("mec-ldns-mec-cdns", "mec-ldns-lan-cdns", "mec-ldns-wan-cdns")
        for key in mec_keys:
            base = result.row("cdns-crash", key, "baseline")
            hard = result.row("cdns-crash", key, "resilient")
            if base.availability >= 0.85:
                fail(f"cdns-crash should dent baseline {key} availability "
                     f"(got {base.availability:.2f} >= 0.85)")
            if hard.availability < 0.95:
                fail(f"serve-stale should keep resilient {key} answering "
                     f"(availability {hard.availability:.2f} < 0.95)")
            if hard.stale_answers == 0:
                fail(f"resilient {key} should have served stale answers")
            if hard.p95_ms > DEADLINE_MS:
                fail(f"resilient {key} p95 {hard.p95_ms:.1f} ms should stay "
                     f"inside the {DEADLINE_MS:.0f} ms deadline")
        for key in ("lan-ldns", "google-dns", "cloudflare-dns"):
            base = result.row("cdns-crash", key, "baseline")
            if base.availability < 0.99:
                fail(f"warmed-resolver {key} should be immune to a C-DNS "
                     f"crash (availability {base.availability:.2f} < 0.99)")

        # -- mec-partition ------------------------------------------------------
        base = result.row("mec-partition", "mec-ldns-mec-cdns", "baseline")
        hard = result.row("mec-partition", "mec-ldns-mec-cdns", "resilient")
        if base.availability >= 0.85:
            fail(f"partition should dent baseline availability "
                 f"(got {base.availability:.2f} >= 0.85)")
        if hard.availability < 0.95:
            fail(f"provider fallback should restore availability "
                 f"(got {hard.availability:.2f} < 0.95)")
        if hard.fallback_answers == 0:
            fail("resilient partition cell should have used the provider L-DNS")
        if hard.p95_ms > DEADLINE_MS:
            fail(f"fallback p95 {hard.p95_ms:.1f} ms should stay inside the "
                 f"{DEADLINE_MS:.0f} ms deadline")

        # -- lte-burst-loss -----------------------------------------------------
        base = result.row("lte-burst-loss", "mec-ldns-mec-cdns", "baseline")
        hard = result.row("lte-burst-loss", "mec-ldns-mec-cdns", "resilient")
        if hard.availability < base.availability + 0.10:
            fail(f"hedging+backoff should lift burst-loss availability by "
                 f">= 0.10 (baseline {base.availability:.2f}, resilient "
                 f"{hard.availability:.2f})")
        if hard.p95_ms >= base.p95_ms:
            fail(f"resilient burst-loss p95 {hard.p95_ms:.1f} ms should beat "
                 f"baseline {base.p95_ms:.1f} ms")

        # -- determinism --------------------------------------------------------
        for key, (first, second) in result.replays.items():
            if first != second:
                fail(f"replay of {key} with the same seed diverged")
        for key in ("cdns-crash/mec-ldns-mec-cdns/baseline",
                    "mec-partition/mec-ldns-mec-cdns/baseline"):
            if not result.timelines.get(key):
                fail(f"fault timeline for {key} should not be empty")
        return claims


EXPERIMENT = ResilienceExperiment()
