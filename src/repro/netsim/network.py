"""The routed topology: hosts, links, forwarding, middleboxes, taps.

Routing is shortest-path by mean link latency over an undirected graph,
computed lazily per source by a stdlib Dijkstra.  Delivery walks the path
hop by hop, sampling each link's latency, applying any middlebox at each
traversed host, and re-routing when a middlebox rewrites the destination
(NAT).  Packet taps observe datagrams at named hosts, which is how the
experiments split "wireless" from "resolver" time exactly like the
paper's tcpdump-at-P-GW method.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.errors import AddressError, RoutingError
from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.node import Host
from repro.netsim.packet import Datagram
from repro.netsim.rand import RandomStreams

#: A tap sees (time_ms, host_name, event, datagram); event is "send",
#: "forward", "deliver", or "drop".
Tap = Callable[[float, str, str, Datagram], None]

#: Hard bound on middlebox-driven re-routing to catch rewrite loops.
_MAX_REROUTES = 16


class Network:
    """A topology of hosts and links bound to a simulator."""

    def __init__(self, sim: Simulator, streams: RandomStreams) -> None:
        self.sim = sim
        self.streams = streams
        #: Undirected adjacency: host -> neighbour -> route weight, each
        #: neighbour dict in link-insertion order (the tie order).
        self._adj: Dict[str, Dict[str, float]] = {}
        self._hosts: Dict[str, Host] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        self._ip_index: Dict[str, Host] = {}
        #: Registered taps with the host each watches (``None``: all).
        self._taps: List[Tuple[Tap, Optional[str]]] = []
        #: Hosts some tap watches, or ``None`` when a tap watches every
        #: host.  A hop event at an unwatched host is never queued.
        self._tapped_hosts: Optional[FrozenSet[str]] = frozenset()
        #: Routing cache: source -> destination -> hop list.
        self._paths: Dict[str, Dict[str, List[str]]] = {}
        #: Attached :class:`repro.telemetry.Telemetry`, or ``None``.
        #: Every instrumentation site in the stack checks this before
        #: doing any work, so an unobserved network runs the exact same
        #: instruction stream as before the subsystem existed.
        self.telemetry = None
        #: Cached counter instruments, valid while ``telemetry`` is
        #: ``_metrics_facade``.  Each is still registered lazily on its
        #: first use (identical registry contents to uncached code); the
        #: cache only skips the registry lookup on the per-packet path.
        self._metrics_facade = None
        self._m_datagrams = None
        self._m_delivered = None
        self._m_drops = None
        #: Active partitions: (group_a, group_b) pairs of host-name sets.
        #: ``group_b is None`` means "everything not in group_a".  Empty
        #: when no fault plan is active, so the per-packet check is one
        #: truthiness test.
        self._partitions: List[Tuple[frozenset, Optional[frozenset]]] = []

    # -- construction -------------------------------------------------------------

    def add_host(self, name: str, *addresses: str) -> Host:
        """Create a host, assign its addresses, join the topology."""
        if name in self._hosts:
            raise AddressError(f"duplicate host name {name}")
        host = Host(name)
        host.network = self
        self._hosts[name] = host
        self._adj[name] = {}
        for ip in addresses:
            self.assign_address(host, ip)
        return host

    def assign_address(self, host: Host, ip: str) -> None:
        """Bind ``ip`` to ``host`` (must be globally unique)."""
        if ip in self._ip_index:
            raise AddressError(f"address {ip} already assigned to "
                               f"{self._ip_index[ip].name}")
        host.addresses.append(ip)
        self._ip_index[ip] = host

    def release_address(self, host: Host, ip: str) -> None:
        """Unbind ``ip`` from ``host`` so it can move elsewhere."""
        if self._ip_index.get(ip) is not host:
            raise AddressError(f"{ip} is not assigned to {host.name}")
        host.addresses.remove(ip)
        del self._ip_index[ip]

    def add_link(self, a: str, b: str, latency, loss: float = 0.0,
                 name: Optional[str] = None,
                 bandwidth_mbps: Optional[float] = None) -> Link:
        """Connect two hosts with a latency model (and optional loss)."""
        for endpoint in (a, b):
            if endpoint not in self._hosts:
                raise AddressError(f"unknown host {endpoint}")
        link = Link(a, b, latency, loss=loss, name=name,
                    bandwidth_mbps=bandwidth_mbps)
        self._links[self._link_key(a, b)] = link
        self._adj[a][b] = self._adj[b][a] = max(link.mean_latency, 1e-9)
        self._paths.clear()  # invalidate the routing cache
        return link

    def remove_link(self, a: str, b: str) -> Link:
        """Tear down the link between ``a`` and ``b`` (e.g. radio handoff).

        Packets already scheduled keep their sampled delivery times, as
        in-flight frames do during a real handoff.
        """
        key = self._link_key(a, b)
        try:
            link = self._links.pop(key)
        except KeyError:
            raise RoutingError(f"no link between {a} and {b}") from None
        del self._adj[a][b], self._adj[b][a]
        self._paths.clear()
        return link

    @staticmethod
    def _link_key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    # -- lookups ----------------------------------------------------------------------

    def host(self, name: str) -> Host:
        """The host named ``name``; raises AddressError if unknown."""
        try:
            return self._hosts[name]
        except KeyError:
            raise AddressError(f"unknown host {name}") from None

    def hosts(self) -> List[Host]:
        """All hosts in the topology."""
        return list(self._hosts.values())

    def host_for_ip(self, ip: str) -> Host:
        """The host owning ``ip``; raises AddressError if unowned."""
        try:
            return self._ip_index[ip]
        except KeyError:
            raise AddressError(f"no host owns {ip}") from None

    def link_between(self, a: str, b: str) -> Link:
        """The link between two adjacent hosts; raises RoutingError."""
        try:
            return self._links[self._link_key(a, b)]
        except KeyError:
            raise RoutingError(f"no link between {a} and {b}") from None

    # -- partitions (fault injection) ---------------------------------------------

    def partition(self, group_a, group_b=None) -> Tuple[frozenset,
                                                        Optional[frozenset]]:
        """Split the topology: drop traffic between the two host groups.

        ``group_b=None`` isolates ``group_a`` from every other host.  The
        returned token heals the cut via :meth:`heal_partition`.  Packets
        are dropped by endpoint membership (src in one group, dst in the
        other), which black-holes the traffic a real partition would.
        """
        token = (frozenset(group_a),
                 None if group_b is None else frozenset(group_b))
        for name in token[0] | (token[1] or frozenset()):
            if name not in self._hosts:
                raise AddressError(f"unknown host {name}")
        self._partitions.append(token)
        return token

    def heal_partition(self, token) -> None:
        """Remove a partition installed by :meth:`partition`."""
        self._partitions.remove(token)

    def is_partitioned(self, src: str, dst: str) -> bool:
        """Whether an active partition separates two hosts."""
        for group_a, group_b in self._partitions:
            src_in_a, dst_in_a = src in group_a, dst in group_a
            if group_b is None:
                if src_in_a != dst_in_a:
                    return True
            elif (src_in_a and dst in group_b) or (dst_in_a and src in group_b):
                return True
        return False

    def add_tap(self, tap: Tap, host: Optional[str] = None) -> None:
        """Register a packet observer (see PacketTrace).

        With ``host`` the tap sees only events at that host, and hop
        events at hosts no tap watches are not queued at all.
        """
        self._taps.append((tap, host))
        self._retap()

    def remove_tap(self, tap: Tap) -> None:
        """Unregister a packet observer; ValueError if it is not one."""
        for index, (registered, _) in enumerate(self._taps):
            if registered == tap:
                del self._taps[index]
                self._retap()
                return
        raise ValueError(f"{tap!r} is not a registered tap")

    def _retap(self) -> None:
        hosts = [host for _, host in self._taps]
        self._tapped_hosts = None if None in hosts else frozenset(hosts)

    # -- routing ----------------------------------------------------------------------------

    def path(self, src: str, dst: str) -> List[str]:
        """Host names from ``src`` to ``dst`` inclusive."""
        paths = self._paths.get(src)
        if paths is None:
            if src not in self._adj:
                raise RoutingError(f"no route from {src} to {dst}")
            paths = self._paths[src] = _shortest_paths(self._adj, src)
        try:
            return paths[dst]
        except KeyError:
            raise RoutingError(f"no route from {src} to {dst}") from None

    def path_mean_latency(self, src: str, dst: str) -> float:
        """Sum of mean one-way link latencies along the route."""
        hops = self.path(src, dst)
        total = 0.0
        for a, b in zip(hops, hops[1:]):
            link = self.link_between(a, b)
            total += link.latency_from(a).mean
        return total

    # -- forwarding -----------------------------------------------------------------------------

    def send(self, datagram: Datagram, from_host: Host) -> None:
        """Inject ``datagram`` at ``from_host`` and walk it to delivery.

        The walk samples each link once, applies middleboxes at every
        traversed host (including the final one), follows destination
        rewrites, and schedules the delivery callback at the accumulated
        time.  Loss anywhere silently drops the packet.
        """
        tel = self.telemetry
        if tel is not None:
            if tel is not self._metrics_facade:
                self._metrics_facade = tel
                self._m_datagrams = self._m_delivered = self._m_drops = None
            counter = self._m_datagrams
            if counter is None:
                counter = self._m_datagrams = tel.metrics.counter(
                    "repro_net_datagrams_total",
                    "datagrams injected into the network")
            counter.inc(protocol=datagram.protocol)
        self._emit("send", from_host.name, datagram)
        self._walk(datagram, from_host, elapsed=0.0, reroutes=0)

    def _walk(self, datagram: Datagram, at: Host, elapsed: float,
              reroutes: int) -> None:
        if reroutes > _MAX_REROUTES:
            raise RoutingError(
                f"middlebox rewrite loop for {datagram!r} at {at.name}")
        try:
            dst_host = self.host_for_ip(datagram.dst.ip)
        except AddressError:
            self._count_drop("unroutable")
            self._schedule_tap("drop", at.name, datagram, elapsed)
            return
        if self._partitions and self.is_partitioned(at.name, dst_host.name):
            self._count_drop("partition")
            self._schedule_tap("drop", at.name, datagram, elapsed)
            return
        hops = self.path(at.name, dst_host.name)
        rng = self.streams.stream("link-delays")
        current = datagram
        # The walk runs synchronously at send time, so ``sim.now`` here is
        # the injection instant; hop span endpoints are ``send_now +
        # elapsed``, the same float expression the tap callbacks observe
        # as ``sim.now`` when they fire.
        tracer = None
        ctx = datagram.trace_ctx
        if self.telemetry is not None and ctx is not None:
            tracer = self.telemetry.tracer
        send_now = self.sim.now
        links = self._links
        for previous, nxt in zip(hops, hops[1:]):
            # Inline link_between: ``hops`` came from path() over the
            # live graph, so every consecutive pair has a link.
            link = links[(previous, nxt) if previous <= nxt
                         else (nxt, previous)]
            hop_start = elapsed
            delay = link.sample_delay(previous, rng, current.size)
            if delay is None:
                self._count_drop("loss")
                self._schedule_tap("drop", nxt, current, elapsed)
                return
            elapsed += delay
            current.hops.append(nxt)
            if tracer is not None:
                tracer.add(
                    "transit", "net", track=nxt, parent=ctx,
                    start_ms=send_now + hop_start,
                    end_ms=send_now + elapsed,
                    link=link.name or f"{previous}~{nxt}",
                    protocol=current.protocol, size=current.size,
                    final=nxt == hops[-1],
                    **{"from": previous, "to": nxt})
            arrived_at = self._hosts[nxt]
            if arrived_at.middlebox is not None and nxt != hops[-1]:
                processed = arrived_at.middlebox.process(current, arrived_at)
                if processed is None:
                    self._count_drop("middlebox")
                    self._schedule_tap("drop", nxt, current, elapsed)
                    return
                self._schedule_tap("forward", nxt, processed, elapsed)
                if processed.dst.ip != current.dst.ip:
                    self._walk(processed, arrived_at, elapsed, reroutes + 1)
                    return
                current = processed
            elif nxt != hops[-1]:
                self._schedule_tap("forward", nxt, current, elapsed)
        final_host = self._hosts[hops[-1]]
        if final_host.middlebox is not None:
            processed = final_host.middlebox.process(current, final_host)
            if processed is None:
                self._count_drop("middlebox")
                self._schedule_tap("drop", final_host.name, current, elapsed)
                return
            if not final_host.owns(processed.dst.ip):
                self._schedule_tap("forward", final_host.name, processed, elapsed)
                self._walk(processed, final_host, elapsed, reroutes + 1)
                return
            current = processed
        self.sim.call_after(elapsed + final_host.brownout_ms,
                            self._deliver, final_host, current)

    def _deliver(self, host: Host, datagram: Datagram) -> None:
        tel = self.telemetry
        if host.down:
            self._count_drop("host-down")
            self._emit("drop", host.name, datagram)
            return
        self._emit("deliver", host.name, datagram)
        sock = host.socket_on_port(datagram.dst.port)
        if sock is None:
            self._count_drop("no-socket")
            self._emit("drop", host.name, datagram)
            return
        if tel is not None:
            if tel is not self._metrics_facade:
                self._metrics_facade = tel
                self._m_datagrams = self._m_delivered = self._m_drops = None
            counter = self._m_delivered
            if counter is None:
                counter = self._m_delivered = tel.metrics.counter(
                    "repro_net_delivered_total",
                    "datagrams handed to a bound socket")
            counter.inc(protocol=datagram.protocol)
            if datagram.trace_ctx is not None:
                tel.tracer.event("deliver", "net", track=host.name,
                                 parent=datagram.trace_ctx,
                                 dst=str(datagram.dst))
        sock.handle_delivery(datagram)

    # -- taps ------------------------------------------------------------------------------------

    def _schedule_tap(self, event: str, host_name: str, datagram: Datagram,
                      elapsed: float) -> None:
        hosts = self._tapped_hosts
        if hosts is not None and host_name not in hosts:
            return
        self.sim.call_after(
            elapsed, self._emit, event, host_name, datagram)

    def _emit(self, event: str, host_name: str, datagram: Datagram) -> None:
        now = self.sim.now
        for tap, host in self._taps:
            if host is None or host == host_name:
                tap(now, host_name, event, datagram)

    def _count_drop(self, reason: str) -> None:
        tel = self.telemetry
        if tel is not None:
            if tel is not self._metrics_facade:
                self._metrics_facade = tel
                self._m_datagrams = self._m_delivered = self._m_drops = None
            counter = self._m_drops
            if counter is None:
                counter = self._m_drops = tel.metrics.counter(
                    "repro_net_drops_total",
                    "datagrams dropped in transit")
            counter.inc(reason=reason)


def _shortest_paths(adj: Dict[str, Dict[str, float]],
                    src: str) -> Dict[str, List[str]]:
    """Dijkstra from ``src``: the hop list to every reachable host.

    Heap entries are ``(distance, push order, host)`` and a host's path
    is replaced only by a strictly shorter one, so among equal-cost
    routes the one reached first through link-insertion order wins.
    Routes (and every digest built on them) depend on nothing else.
    """
    paths = {src: [src]}
    best = {src: 0.0}
    settled: Set[str] = set()
    order = count()
    heap = [(0.0, next(order), src)]
    while heap:
        dist, _, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        for nbr, weight in adj[node].items():
            nbr_dist = dist + weight
            if nbr not in settled and nbr_dist < best.get(nbr, float("inf")):
                best[nbr] = nbr_dist
                heapq.heappush(heap, (nbr_dist, next(order), nbr))
                paths[nbr] = paths[node] + [nbr]
    return paths
