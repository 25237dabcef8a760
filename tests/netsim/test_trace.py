"""Tests for the PacketTrace tcpdump-analog tap and its filters."""

import pytest

from repro.netsim.engine import Simulator
from repro.netsim.latency import Constant
from repro.netsim.network import Network
from repro.netsim.packet import Endpoint
from repro.netsim.rand import RandomStreams
from repro.netsim.socket import UdpSocket
from repro.netsim.trace import PacketTrace
from tests.netsim.test_network import _Nat, build_line


def three_hop_network():
    """client -- middle -- server, 1 ms per link."""
    sim = Simulator()
    net = Network(sim, RandomStreams(0))
    net.add_host("client", "10.0.0.1")
    net.add_host("middle", "10.0.0.2")
    net.add_host("server", "10.0.0.3")
    net.add_link("client", "middle", Constant(1.0))
    net.add_link("middle", "server", Constant(1.0))
    UdpSocket(net.host("server"), port=53)  # the listening endpoint
    return sim, net


def send_one(sim, net, payload=b"ping"):
    """Send one datagram client -> server and run the sim dry."""
    sock = UdpSocket(net.host("client"))
    sock.send_to(payload, Endpoint("10.0.0.3", 53))
    sim.run()
    sock.close()


class TestFilters:
    def test_unfiltered_sees_every_event(self):
        sim, net = three_hop_network()
        trace = PacketTrace(net)
        send_one(sim, net)
        events = {record.event for record in trace.records}
        assert events == {"send", "forward", "deliver"}

    def test_host_filter_limits_to_one_host(self):
        sim, net = three_hop_network()
        trace = PacketTrace(net, host_filter="middle")
        send_one(sim, net)
        assert trace.records
        assert all(record.host == "middle" for record in trace.records)
        assert all(record.event == "forward" for record in trace.records)

    def test_event_filter_limits_to_one_kind(self):
        sim, net = three_hop_network()
        trace = PacketTrace(net, event_filter="deliver")
        send_one(sim, net)
        assert len(trace.records) == 1
        record = trace.records[0]
        assert record.event == "deliver"
        assert record.host == "server"

    def test_combined_filters(self):
        sim, net = three_hop_network()
        trace = PacketTrace(net, host_filter="server",
                            event_filter="forward")
        send_one(sim, net)
        assert trace.records == []  # the server only ever delivers

    def test_records_carry_packet_fields(self):
        sim, net = three_hop_network()
        trace = PacketTrace(net, event_filter="deliver")
        send_one(sim, net, payload=b"ping")
        record = trace.records[0]
        assert record.dst == "10.0.0.3:53"
        assert record.size > 0
        assert record.protocol == "udp"
        assert record.time == 2.0  # two 1 ms hops


class TestLifecycle:
    def test_between_selects_time_window(self):
        sim, net = three_hop_network()
        trace = PacketTrace(net)
        send_one(sim, net)
        early = trace.between(0.0, 1.0)
        assert early
        assert all(record.time <= 1.0 for record in early)
        assert len(trace.between(100.0, 200.0)) == 0

    def test_first_by_event_kind(self):
        sim, net = three_hop_network()
        trace = PacketTrace(net)
        send_one(sim, net)
        assert trace.first("deliver").host == "server"
        assert trace.first("nonexistent") is None

    def test_clear_keeps_capturing(self):
        sim, net = three_hop_network()
        trace = PacketTrace(net)
        send_one(sim, net)
        trace.clear()
        assert len(trace) == 0
        send_one(sim, net)
        assert len(trace) > 0

    def test_close_stops_capturing(self):
        sim, net = three_hop_network()
        trace = PacketTrace(net)
        send_one(sim, net)
        seen = len(trace)
        trace.close()
        send_one(sim, net)
        assert len(trace) == seen


def nat_topology():
    """ue -- pgw (source NAT) -- cdn: 10 ms then 20 ms."""
    sim = Simulator()
    net = Network(sim, RandomStreams(1))
    net.add_host("ue", "10.1.0.2")
    net.add_host("pgw", "10.1.0.1", "198.51.100.1")
    net.add_host("cdn", "203.0.113.10")
    net.add_link("ue", "pgw", Constant(10))
    net.add_link("pgw", "cdn", Constant(20))
    net.host("pgw").install_middlebox(_Nat("198.51.100.1"))
    return sim, net, Endpoint("203.0.113.10", 53)


def multi_hop_topology():
    """ue -- enb -- pgw -- dns with distinct constant link latencies."""
    sim = Simulator()
    net = Network(sim, RandomStreams(42))
    build_line(net, ("ue", "10.0.0.1", 10), ("enb", "10.0.0.4", 3),
               ("pgw", "10.0.0.2", 20), ("dns", "10.0.0.3", 0))
    return sim, net, Endpoint("10.0.0.3", 53)


def run_exchange(topology, *trace_kwargs):
    """Two request/reply exchanges plus one unroutable datagram.

    One PacketTrace per ``trace_kwargs`` dict is attached first; returns
    ``(sim, net, traces)``.
    """
    sim, net, server_endpoint = topology()
    traces = [PacketTrace(net, **kwargs) for kwargs in trace_kwargs]
    server = UdpSocket(net.host_for_ip(server_endpoint.ip),
                       port=server_endpoint.port)
    server.on_datagram = lambda payload, src, sock: sock.send_to(b"r", src)
    for _ in range(2):
        client = UdpSocket(net.host("ue"))
        sim.run_until_resolved(
            client.request(b"q", server_endpoint, timeout=500))
        client.close()
    UdpSocket(net.host("ue")).send_to(b"x", Endpoint("192.0.2.99", 53))
    sim.run()
    return sim, net, traces


TOPOLOGIES = {"nat": nat_topology, "multi-hop": multi_hop_topology}


class TestHostScopedTaps:
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_scoped_trace_equals_filtered_unscoped_trace(self, name):
        topology = TOPOLOGIES[name]
        _, net, (everything,) = run_exchange(topology, {})
        hosts = [host.name for host in net.hosts()]
        assert {record.host for record in everything.records} == set(hosts)
        assert {record.event for record in everything.records} == {
            "send", "forward", "deliver", "drop"}
        for host in hosts:
            _, _, (scoped,) = run_exchange(topology, {"host_filter": host})
            expected = [record for record in everything.records
                        if record.host == host]
            assert scoped.records == expected

    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_scoped_tap_queues_fewer_events(self, name):
        unscoped_sim, _, _ = run_exchange(TOPOLOGIES[name], {})
        scoped_sim, _, (scoped,) = run_exchange(TOPOLOGIES[name],
                                                {"host_filter": "pgw"})
        assert scoped.records
        assert scoped_sim.now == unscoped_sim.now
        assert scoped_sim.events_processed < unscoped_sim.events_processed

    def test_scoped_and_unscoped_taps_side_by_side(self):
        kwargs = [{}, {"host_filter": "enb"},
                  {"host_filter": "pgw", "event_filter": "forward"},
                  {"host_filter": "pgw"}]
        _, _, traces = run_exchange(multi_hop_topology, *kwargs)
        everything = traces[0].records
        for options, trace in zip(kwargs[1:], traces[1:]):
            assert trace.records == [
                record for record in everything
                if record.host == options["host_filter"]
                and options.get("event_filter", record.event) == record.event]

    def test_remove_tap_rejects_an_unknown_tap(self):
        _, net = three_hop_network()
        trace = PacketTrace(net, host_filter="middle")
        with pytest.raises(ValueError):
            net.remove_tap(lambda *args: None)
        trace.close()
        with pytest.raises(ValueError):
            trace.close()

    def test_closing_the_last_scoped_tap_stops_queueing(self):
        sim, net = three_hop_network()
        send_one(sim, net)
        bare = sim.events_processed  # the delivery alone
        trace = PacketTrace(net, host_filter="middle")
        send_one(sim, net)
        assert sim.events_processed == 2 * bare + 1  # plus one forward
        trace.close()
        send_one(sim, net)
        assert sim.events_processed == 3 * bare + 1
