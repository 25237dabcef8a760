"""Tests for topology, forwarding, middleboxes, sockets, and traces."""

import random

import pytest

from repro.errors import AddressError, QueryTimeout, RoutingError, SocketError
from repro.netsim import (
    Constant,
    Endpoint,
    Middlebox,
    Network,
    PacketTrace,
    RandomStreams,
    Simulator,
    UdpSocket,
)


@pytest.fixture
def net():
    sim = Simulator()
    network = Network(sim, RandomStreams(42))
    return network


def build_line(network, *specs):
    """hosts a-b-c... with constant-latency links: specs = (name, ip, latency_to_next)."""
    previous = None
    previous_latency = None
    for name, ip, latency in specs:
        network.add_host(name, ip)
        if previous is not None:
            network.add_link(previous, name, Constant(previous_latency))
        previous = name
        previous_latency = latency


class TestTopology:
    def test_duplicate_host_rejected(self, net):
        net.add_host("a", "10.0.0.1")
        with pytest.raises(AddressError):
            net.add_host("a", "10.0.0.2")

    def test_duplicate_ip_rejected(self, net):
        net.add_host("a", "10.0.0.1")
        with pytest.raises(AddressError):
            net.add_host("b", "10.0.0.1")

    def test_link_to_unknown_host_rejected(self, net):
        net.add_host("a", "10.0.0.1")
        with pytest.raises(AddressError):
            net.add_link("a", "ghost", Constant(1))

    def test_path_shortest_by_latency(self, net):
        for name, ip in [("a", "1.0.0.1"), ("b", "1.0.0.2"),
                         ("c", "1.0.0.3"), ("d", "1.0.0.4")]:
            net.add_host(name, ip)
        net.add_link("a", "b", Constant(1))
        net.add_link("b", "d", Constant(1))
        net.add_link("a", "c", Constant(5))
        net.add_link("c", "d", Constant(5))
        assert net.path("a", "d") == ["a", "b", "d"]
        assert net.path_mean_latency("a", "d") == 2

    def test_no_route_raises(self, net):
        net.add_host("a", "1.0.0.1")
        net.add_host("b", "1.0.0.2")
        with pytest.raises(RoutingError):
            net.path("a", "b")

    def test_routing_cache_invalidated_by_new_link(self, net):
        for name, ip in [("a", "1.0.0.1"), ("b", "1.0.0.2"), ("c", "1.0.0.3")]:
            net.add_host(name, ip)
        net.add_link("a", "b", Constant(10))
        net.add_link("b", "c", Constant(10))
        assert net.path("a", "c") == ["a", "b", "c"]
        net.add_link("a", "c", Constant(1))
        assert net.path("a", "c") == ["a", "c"]

    def test_address_release_and_reassign(self, net):
        a = net.add_host("a", "1.0.0.1", "198.51.100.1")
        net.release_address(a, "198.51.100.1")
        b = net.add_host("b", "1.0.0.2")
        net.assign_address(b, "198.51.100.1")
        assert net.host_for_ip("198.51.100.1") is b


def build_graph(network, hosts, links):
    """Hosts by name plus constant-latency links: links = (a, b, ms)."""
    for index, name in enumerate(hosts):
        network.add_host(name, f"1.0.{index // 250}.{index % 250 + 1}")
    for a, b, latency in links:
        network.add_link(a, b, Constant(latency))


DIAMOND = [("a", "b", 1), ("a", "c", 1), ("b", "d", 1), ("c", "d", 1)]


class TestRouting:
    """Equal-cost ties resolve by link-insertion order, reproducibly."""

    def test_equal_cost_diamond_takes_the_first_linked_branch(self, net):
        build_graph(net, "abcd", DIAMOND)
        assert net.path("a", "d") == ["a", "b", "d"]
        assert net.path("d", "a") == ["d", "b", "a"]
        assert net.path("b", "c") == ["b", "a", "c"]
        assert net.path("c", "b") == ["c", "a", "b"]

    def test_diamond_follows_link_order_not_host_names(self, net):
        build_graph(net, "abcd", [DIAMOND[1], DIAMOND[3], DIAMOND[0],
                                  DIAMOND[2]])
        assert net.path("a", "d") == ["a", "c", "d"]
        assert net.path("d", "a") == ["d", "c", "a"]

    def test_relinked_neighbour_moves_to_the_end_of_the_tie_order(self, net):
        build_graph(net, "abcd", DIAMOND)
        assert net.path("a", "d") == ["a", "b", "d"]
        net.remove_link("a", "b")
        net.add_link("a", "b", Constant(1))
        assert net.path("a", "d") == ["a", "c", "d"]
        assert net.path("b", "c") == ["b", "d", "c"]
        assert net.path("d", "a") == ["d", "b", "a"]

    def test_link_changes_invalidate_cached_paths(self, net):
        build_graph(net, "abc", [("a", "b", 1), ("b", "c", 1)])
        assert net.path("a", "c") == ["a", "b", "c"]
        net.remove_link("b", "c")
        with pytest.raises(RoutingError):
            net.path("a", "c")
        net.add_link("a", "c", Constant(5))
        assert net.path("a", "c") == ["a", "c"]
        assert net.path("c", "b") == ["c", "a", "b"]

    def test_unknown_source_raises(self, net):
        build_graph(net, "ab", [("a", "b", 1)])
        with pytest.raises(RoutingError):
            net.path("ghost", "a")
        with pytest.raises(RoutingError):
            net.path("a", "ghost")

    def test_unreachable_destination_raises(self, net):
        build_graph(net, "abc", [("a", "b", 1)])
        with pytest.raises(RoutingError):
            net.path("a", "c")
        assert net.path("c", "c") == ["c"]

    @pytest.mark.parametrize("seed", range(20))
    def test_paths_are_minimal_over_every_simple_path(self, seed):
        rng = random.Random(seed)
        hosts = [f"h{i}" for i in range(rng.randint(2, 7))]
        pairs = [(a, b) for i, a in enumerate(hosts) for b in hosts[i + 1:]]
        links = [(a, b, rng.choice((0.5, 1, 1, 2, 3)))
                 for a, b in rng.sample(pairs, rng.randint(0, len(pairs)))]
        net = Network(Simulator(), RandomStreams(seed))
        build_graph(net, hosts, links)
        weights = {}
        for a, b, latency in links:
            weights.setdefault(a, {})[b] = latency
            weights.setdefault(b, {})[a] = latency

        def cheapest(node, dst, visited):
            if node == dst:
                return 0.0
            costs = [latency + cheapest(nbr, dst, visited | {nbr})
                     for nbr, latency in weights.get(node, {}).items()
                     if nbr not in visited]
            return min(costs, default=float("inf"))

        for src in hosts:
            for dst in hosts:
                best = cheapest(src, dst, {src})
                if best == float("inf"):
                    with pytest.raises(RoutingError):
                        net.path(src, dst)
                    continue
                hops = net.path(src, dst)
                assert (hops[0], hops[-1]) == (src, dst)
                assert len(set(hops)) == len(hops)
                assert net.path_mean_latency(src, dst) == pytest.approx(best)


class TestDelivery:
    def test_end_to_end_latency_is_sum_of_links(self, net):
        build_line(net, ("client", "10.0.0.1", 3), ("mid", "10.0.0.2", 4),
                   ("server", "10.0.0.3", 0))
        received = []
        server_sock = UdpSocket(net.host("server"), port=53)
        server_sock.on_datagram = lambda payload, src, sock: received.append(
            (net.sim.now, payload))
        client_sock = UdpSocket(net.host("client"))
        client_sock.send_to(b"hello", Endpoint("10.0.0.3", 53))
        net.sim.run()
        assert received == [(7.0, b"hello")]

    def test_request_reply_roundtrip(self, net):
        build_line(net, ("client", "10.0.0.1", 5), ("server", "10.0.0.2", 0))
        server_sock = UdpSocket(net.host("server"), port=53)
        server_sock.on_datagram = lambda payload, src, sock: sock.send_to(
            b"re:" + payload, src)
        client_sock = UdpSocket(net.host("client"))
        future = client_sock.request(b"ping", Endpoint("10.0.0.2", 53), timeout=100)
        reply = net.sim.run_until_resolved(future)
        assert reply.payload == b"re:ping"
        assert net.sim.now == 10.0

    def test_request_times_out(self, net):
        build_line(net, ("client", "10.0.0.1", 5), ("server", "10.0.0.2", 0))
        # No socket listening on the server.
        client_sock = UdpSocket(net.host("client"))
        future = client_sock.request(b"ping", Endpoint("10.0.0.2", 53), timeout=30)
        with pytest.raises(QueryTimeout):
            net.sim.run_until_resolved(future)
        assert net.sim.now == 30.0

    def test_unroutable_destination_is_dropped(self, net):
        net.add_host("client", "10.0.0.1")
        client_sock = UdpSocket(net.host("client"))
        client_sock.send_to(b"x", Endpoint("203.0.113.9", 53))
        net.sim.run()  # no exception; packet silently dropped

    def test_lossy_link_drops(self):
        sim = Simulator()
        net = Network(sim, RandomStreams(7))
        net.add_host("a", "10.0.0.1")
        net.add_host("b", "10.0.0.2")
        link = net.add_link("a", "b", Constant(1), loss=0.5)
        delivered = []
        server = UdpSocket(net.host("b"), port=9)
        server.on_datagram = lambda payload, src, sock: delivered.append(payload)
        sender = UdpSocket(net.host("a"), port=1000)
        for _ in range(200):
            sender.send_to(b"x", Endpoint("10.0.0.2", 9))
        sim.run()
        assert 40 < len(delivered) < 160
        assert link.packets_dropped + link.packets_carried == 200

    def test_one_request_in_flight_enforced(self, net):
        build_line(net, ("client", "10.0.0.1", 5), ("server", "10.0.0.2", 0))
        sock = UdpSocket(net.host("client"))
        sock.request(b"a", Endpoint("10.0.0.2", 53), timeout=100)
        with pytest.raises(SocketError):
            sock.request(b"b", Endpoint("10.0.0.2", 53), timeout=100)

    def test_closed_socket_rejects_send(self, net):
        net.add_host("a", "10.0.0.1")
        sock = UdpSocket(net.host("a"))
        sock.close()
        with pytest.raises(SocketError):
            sock.send_to(b"x", Endpoint("10.0.0.1", 1))

    def test_port_collision_rejected(self, net):
        net.add_host("a", "10.0.0.1")
        UdpSocket(net.host("a"), port=53)
        with pytest.raises(AddressError):
            UdpSocket(net.host("a"), port=53)

    def test_ephemeral_ports_unique(self, net):
        net.add_host("a", "10.0.0.1")
        ports = {UdpSocket(net.host("a")).port for _ in range(50)}
        assert len(ports) == 50


class _Nat(Middlebox):
    """Minimal source-NAT: rewrites private sources to the public IP."""

    def __init__(self, public_ip):
        self.public_ip = public_ip
        self.mappings = {}
        self.next_port = 20000

    def process(self, datagram, host):
        if datagram.src.ip.startswith("10.") and not host.owns(datagram.dst.ip):
            public = Endpoint(self.public_ip, self.next_port)
            self.next_port += 1
            self.mappings[public] = datagram.src
            return datagram.rewritten(src=public)
        if host.owns(datagram.dst.ip) and datagram.dst in self.mappings:
            return datagram.rewritten(dst=self.mappings[datagram.dst])
        return datagram


class TestMiddlebox:
    def build_nat_topology(self):
        sim = Simulator()
        net = Network(sim, RandomStreams(1))
        net.add_host("ue", "10.1.0.2")
        net.add_host("pgw", "10.1.0.1", "198.51.100.1")
        net.add_host("cdn", "203.0.113.10")
        net.add_link("ue", "pgw", Constant(10))
        net.add_link("pgw", "cdn", Constant(20))
        nat = _Nat("198.51.100.1")
        net.host("pgw").install_middlebox(nat)
        return sim, net, nat

    def test_server_sees_public_ip(self):
        sim, net, nat = self.build_nat_topology()
        seen = []
        server = UdpSocket(net.host("cdn"), port=53)
        server.on_datagram = lambda payload, src, sock: seen.append(src)
        client = UdpSocket(net.host("ue"))
        client.send_to(b"q", Endpoint("203.0.113.10", 53))
        sim.run()
        assert seen[0].ip == "198.51.100.1"  # the paper's IP obfuscation

    def test_reply_translates_back_to_client(self):
        sim, net, nat = self.build_nat_topology()
        server = UdpSocket(net.host("cdn"), port=53)
        server.on_datagram = lambda payload, src, sock: sock.send_to(b"r", src)
        client = UdpSocket(net.host("ue"))
        future = client.request(b"q", Endpoint("203.0.113.10", 53), timeout=500)
        reply = sim.run_until_resolved(future)
        assert reply.payload == b"r"
        assert sim.now == 60.0  # 2 * (10 + 20)


class TestTrace:
    def test_trace_records_forwarding_at_host(self, net):
        build_line(net, ("ue", "10.0.0.1", 10), ("pgw", "10.0.0.2", 20),
                   ("dns", "10.0.0.3", 0))
        trace = PacketTrace(net, host_filter="pgw")
        server = UdpSocket(net.host("dns"), port=53)
        server.on_datagram = lambda payload, src, sock: sock.send_to(b"r", src)
        client = UdpSocket(net.host("ue"))
        future = client.request(b"q", Endpoint("10.0.0.3", 53), timeout=500)
        net.sim.run_until_resolved(future)
        events = [(record.time, record.event) for record in trace.records]
        assert (10.0, "forward") in events  # query passing the P-GW
        assert (50.0, "forward") in events  # reply passing the P-GW

    def test_trace_event_filter_and_close(self, net):
        build_line(net, ("a", "10.0.0.1", 1), ("b", "10.0.0.2", 0))
        trace = PacketTrace(net, event_filter="deliver")
        server = UdpSocket(net.host("b"), port=5)
        server.on_datagram = lambda payload, src, sock: None
        sender = UdpSocket(net.host("a"))
        sender.send_to(b"x", Endpoint("10.0.0.2", 5))
        net.sim.run()
        assert len(trace) == 1
        assert trace.first().event == "deliver"
        trace.close()
        sender.send_to(b"x", Endpoint("10.0.0.2", 5))
        net.sim.run()
        assert len(trace) == 1
