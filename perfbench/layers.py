"""Which calls into ``repro`` the traced run wraps, and the per-layer
metrics read off the recorder afterwards.

Every wrapper replaces a name where its callers look it up: a method on
its class (callers go through the instance), or a module function in
the global namespace of every ``repro`` module that bound it with
``from ... import``.  :func:`install` returns an undo callable that puts
every original back.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from spans import (Recorder, count_function, count_generator, span_function,
                   span_generator)


class Seam(NamedTuple):
    """One wrapped callable: ``module:Class.attr`` or ``module:function``."""

    target: str
    name: str
    #: ``span``, ``generator``, ``lifetime`` (a generator that is also a
    #: request), ``count`` or ``count_generator``.
    kind: str = "span"
    keep: bool = False
    leaf_hits: bool = False
    hit: Optional[Callable[[Any], bool]] = None


def _cache_hit(answer: Any) -> bool:
    return not answer.is_miss


def _lru_hit(result: Any) -> bool:
    return bool(result)


SEAMS: Tuple[Seam, ...] = (
    # netsim: the engine and the network walk.
    Seam("repro.netsim.engine:Simulator.run", "netsim.drain", keep=True),
    Seam("repro.netsim.engine:Simulator.run_until_resolved", "netsim.drain",
         keep=True),
    Seam("repro.netsim.engine:Simulator.spawn", "netsim.spawn", "count"),
    Seam("repro.netsim.network:Network.send", "netsim.send"),
    Seam("repro.netsim.network:Network.path", "netsim.path"),
    # dnswire: the codec and the encode memo.
    Seam("repro.dnswire.message:Message.from_wire", "dnswire.from_wire"),
    Seam("repro.dnswire.message:Message.to_wire", "dnswire.to_wire"),
    Seam("repro.dnswire.message:cached_wire", "dnswire.cached_wire",
         leaf_hits=True),
    # resolver, mec and the cdn router: the Figure 5 lookup path.
    Seam("repro.resolver.stub:StubResolver.query", "resolver.stub_query",
         "lifetime"),
    Seam("repro.resolver.recursive:RecursiveResolver.handle_query",
         "resolver.recursive", "generator"),
    Seam("repro.resolver.forwarder:ForwardingResolver.handle_query",
         "resolver.forwarder", "generator"),
    Seam("repro.resolver.authoritative:AuthoritativeServer.handle_query",
         "resolver.authoritative"),
    Seam("repro.resolver.cache:DnsCache.get", "resolver.cache_get", "count",
         hit=_cache_hit),
    Seam("repro.resolver.server:DnsServer.query_upstream",
         "resolver.upstream", "count_generator"),
    Seam("repro.mec.coredns:CoreDnsServer.handle_query", "mec.coredns",
         "generator"),
    Seam("repro.cdn.router:TrafficRouter.select_cache", "cdn.select_cache"),
    # cdn allocation and content popularity.
    Seam("repro.cdn.allocation:HashRing.pick", "cdn.ring_pick"),
    Seam("repro.cdn.allocation:hash_point", "cdn.hash_point"),
    Seam("repro.cdn.content:ZipfRankStream.next_rank", "cdn.next_rank"),
    # core, workload, measure, telemetry.
    Seam("repro.core.deployments:build_testbed", "core.build_testbed",
         keep=True),
    Seam("repro.workload.deployment:calibrate", "workload.calibrate",
         keep=True),
    Seam("repro.workload.engine:run_district", "workload.run_district",
         keep=True),
    Seam("repro.workload.caches:RankLru.lookup", "workload.cache_lookup",
         "count", hit=_lru_hit),
    Seam("repro.workload.deployment:DeploymentModel.dns_legs",
         "workload.dns_legs"),
    Seam("repro.measure.histogram:LatencyHistogram.add", "measure.hist_add"),
    Seam("repro.measure.histogram:LatencyHistogram.merge",
         "measure.hist_merge", keep=True),
    Seam("repro.telemetry.trace:Tracer.ingest", "telemetry.ingest"),
    Seam("repro.telemetry.timeseries:TimeSeries.bulk_observe",
         "telemetry.flush"),
    Seam("repro.telemetry.timeseries:TimeSeries.bulk_count",
         "telemetry.flush"),
)

#: Span names whose self time is a per-layer metric.  Everything else a
#: traced run spends lands in ``trace.unattributed_self_s``.
SELF_METRICS: Tuple[Tuple[str, str], ...] = (
    ("netsim.drain_self_s", "netsim.drain"),
    ("netsim.send_self_s", "netsim.send"),
    ("netsim.path_self_s", "netsim.path"),
    ("dnswire.from_wire_self_s", "dnswire.from_wire"),
    ("dnswire.to_wire_self_s", "dnswire.to_wire"),
    ("resolver.recursive_self_s", "resolver.recursive"),
    ("resolver.forwarder_self_s", "resolver.forwarder"),
    ("resolver.authoritative_self_s", "resolver.authoritative"),
    ("mec.coredns_self_s", "mec.coredns"),
    ("cdn.select_cache_self_s", "cdn.select_cache"),
    ("cdn.ring_pick_self_s", "cdn.ring_pick"),
    ("cdn.hash_point_self_s", "cdn.hash_point"),
    ("cdn.next_rank_self_s", "cdn.next_rank"),
    ("workload.run_district_self_s", "workload.run_district"),
    ("workload.dns_legs_self_s", "workload.dns_legs"),
    ("measure.hist_add_self_s", "measure.hist_add"),
    ("telemetry.ingest_self_s", "telemetry.ingest"),
    ("telemetry.tail_offer_self_s", "telemetry.tail_offer"),
    ("telemetry.flush_self_s", "telemetry.flush"),
)


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, raw value)`` for a seam target."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *classes, attribute = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attribute, owner.__dict__[attribute]


def _wrap(recorder: Recorder, seam: Seam, fn: Callable[..., Any]) -> Any:
    if seam.kind == "span":
        return span_function(recorder, seam.name, fn, keep=seam.keep,
                             leaf_hits=seam.leaf_hits)
    if seam.kind in ("generator", "lifetime"):
        return span_generator(recorder, seam.name, fn,
                              lifetime=seam.kind == "lifetime")
    if seam.kind == "count":
        return count_function(recorder, seam.name, fn, hit=seam.hit)
    if seam.kind == "count_generator":
        return count_generator(recorder, seam.name, fn)
    raise ValueError(f"unknown seam kind {seam.kind!r}")


def _tail_offer(recorder: Recorder, original: Callable[..., Any]) -> Any:
    """``TailReservoir.offer``, counting the exemplars it admits.

    An offer is kept when it clears the reservoir's rejection threshold
    (read before the call, as ``offer`` itself reads it).
    """
    timed = span_function(recorder, "telemetry.tail_offer", original)

    def offer(reservoir: Any, exemplar: Any) -> Any:
        threshold = reservoir.threshold_ms
        if reservoir.capacity > 0 and (threshold is None
                                       or exemplar.total_ms >= threshold):
            recorder.count("telemetry.tail_offer.kept")
        recorder.count("telemetry.tail_offer.calls")
        return timed(reservoir, exemplar)
    return offer


def _trial_request(experiment: Any, spec: Any) -> str:
    return f"trial{spec.index}"


def install(recorder: Recorder, experiment_class: type,
            ) -> Callable[[], None]:
    """Wrap every seam (and ``experiment_class.run_trial``, one span per
    trial); returns the undo callable.

    Every :class:`~repro.netsim.engine.Simulator` built while installed
    is appended to ``recorder.simulators``, for the engine counters.
    """
    patches: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attribute: str, value: Any) -> None:
        patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    for seam in SEAMS:
        owner, attribute, raw = _resolve(seam.target)
        if isinstance(owner, type):
            if isinstance(raw, classmethod):
                patch(owner, attribute,
                      classmethod(_wrap(recorder, seam, raw.__func__)))
            else:
                patch(owner, attribute, _wrap(recorder, seam, raw))
            continue
        wrapper = _wrap(recorder, seam, raw)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "repro" or module is None:
                continue
            for global_name, value in list(vars(module).items()):
                if value is raw:
                    patch(module, global_name, wrapper)

    reservoir, attribute, raw = _resolve(
        "repro.telemetry.sampling:TailReservoir.offer")
    patch(reservoir, attribute, _tail_offer(recorder, raw))
    patch(experiment_class, "run_trial", span_function(
        recorder, "experiments.run_trial", experiment_class.run_trial,
        request=_trial_request))

    engine = importlib.import_module("repro.netsim.engine")
    previous_observer = engine._simulator_observer
    engine.observe_simulators(recorder.simulators.append)

    def undo() -> None:
        engine.observe_simulators(previous_observer)
        for owner, attribute, value in reversed(patches):
            setattr(owner, attribute, value)
    return undo


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_metrics(recorder: Recorder, wall_s: float) -> Dict[str, float]:
    """The traced per-layer metrics (all but ``runtime.*`` and
    ``trace.overhead_frac``, which need the untraced run)."""
    counts = recorder.counts
    simulators = recorder.simulators
    metrics: Dict[str, float] = {
        "netsim.events": sum(sim.events_processed for sim in simulators),
        "netsim.queue_depth_max": max(
            (sim.max_queue_depth for sim in simulators), default=0),
        "netsim.spawn_calls": counts.get("netsim.spawn.calls", 0),
        "netsim.send_calls": recorder.spans("netsim.send"),
        "dnswire.from_wire_calls": recorder.spans("dnswire.from_wire"),
        "dnswire.to_wire_calls": recorder.spans("dnswire.to_wire"),
        "dnswire.cached_wire_calls": recorder.spans("dnswire.cached_wire"),
        "dnswire.cached_wire_hit_ratio": _ratio(
            counts.get("dnswire.cached_wire.hits", 0),
            recorder.spans("dnswire.cached_wire")),
        "resolver.stub_query_calls": counts.get(
            "resolver.stub_query.calls", 0),
        "resolver.stub_query_s": sum(
            end - start for name, start, end, _, _ in recorder.kept
            if name == "resolver.stub_query.lifetime"),
        "resolver.authoritative_calls": recorder.spans(
            "resolver.authoritative"),
        "resolver.cache_get_calls": counts.get("resolver.cache_get.calls", 0),
        "resolver.cache_hit_ratio": _ratio(
            counts.get("resolver.cache_get.hits", 0),
            counts.get("resolver.cache_get.calls", 0)),
        "resolver.upstream_calls": counts.get("resolver.upstream.calls", 0),
        "resolver.upstream_failed": counts.get("resolver.upstream.failed", 0),
        "mec.coredns_calls": counts.get("mec.coredns.calls", 0),
        "cdn.select_cache_calls": recorder.spans("cdn.select_cache"),
        "cdn.ring_pick_calls": recorder.spans("cdn.ring_pick"),
        "cdn.hash_point_calls": recorder.spans("cdn.hash_point"),
        "cdn.next_rank_calls": recorder.spans("cdn.next_rank"),
        "core.build_testbed_calls": recorder.spans("core.build_testbed"),
        "core.build_testbed_s": recorder.total_s("core.build_testbed"),
        "workload.calibrate_calls": recorder.spans("workload.calibrate"),
        "workload.calibrate_s": recorder.total_s("workload.calibrate"),
        "workload.cache_lookup_calls": counts.get(
            "workload.cache_lookup.calls", 0),
        "workload.cache_hit_ratio": _ratio(
            counts.get("workload.cache_lookup.hits", 0),
            counts.get("workload.cache_lookup.calls", 0)),
        "measure.hist_add_calls": recorder.spans("measure.hist_add"),
        "measure.hist_merge_s": recorder.total_s("measure.hist_merge"),
        "telemetry.ingest_calls": recorder.spans("telemetry.ingest"),
        "telemetry.tail_offer_calls": counts.get(
            "telemetry.tail_offer.calls", 0),
        "telemetry.tail_kept_ratio": _ratio(
            counts.get("telemetry.tail_offer.kept", 0),
            counts.get("telemetry.tail_offer.calls", 0)),
    }
    attributed = 0.0
    for metric, span in SELF_METRICS:
        metrics[metric] = recorder.self_s(span)
        attributed += metrics[metric]
    metrics["trace.unattributed_self_s"] = wall_s - attributed
    return metrics
