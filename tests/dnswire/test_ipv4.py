"""The cached IPv4 helpers against a fresh ``ipaddress`` parse."""

import ipaddress

import pytest
from hypothesis import given, settings, strategies as st

from repro.cdn.router import CoverageZone
from repro.dnswire.ipv4 import ipv4_int, ipv4_network, ipv4_text
from repro.dnswire.rdata import A
from repro.dnswire.wire import WireWriter
from repro.mec.namespaces import SplitNamespacePlugin

_octet = st.integers(0, 255).map(str)
_addresses = st.one_of(
    st.lists(_octet, min_size=4, max_size=4).map(".".join),
    st.sampled_from(["", "1.2.3", "1.2.3.4.5", "256.0.0.1", "01.2.3.4",
                     " 1.2.3.4", "1.2.3.4/32", "::1", "a.b.c.d"]),
)
_cidrs = st.one_of(
    st.tuples(_addresses, st.integers(0, 33)).map(
        lambda args: f"{args[0]}/{args[1]}"),
    st.sampled_from(["10.0.0.0/8", "10.0.0.1/8", "10.0.0.0/255.0.0.0",
                     "10.0.0.0/0.255.255.255", "10.0.0.0/x", "10.0.0.0"]),
)


def _outcome(call, *args):
    try:
        return ("ok", call(*args))
    except ValueError as error:
        return ("error", type(error), str(error))


def _reference_network(cidr):
    network = ipaddress.IPv4Network(cidr)
    return (int(network.network_address), int(network.netmask),
            network.prefixlen)


@given(address=_addresses)
@settings(max_examples=200, deadline=None)
def test_address_helpers_match_ipaddress(address):
    for _ in range(2):  # a cold call, then a cached one
        assert _outcome(ipv4_int, address) == _outcome(
            lambda text: int(ipaddress.IPv4Address(text)), address)
        assert _outcome(ipv4_text, address) == _outcome(
            lambda text: str(ipaddress.IPv4Address(text)), address)


@given(cidr=_cidrs)
@settings(max_examples=200, deadline=None)
def test_network_helper_matches_ipaddress(cidr):
    for _ in range(2):
        assert _outcome(ipv4_network, cidr) == _outcome(
            _reference_network, cidr)


@given(address=_addresses, cidrs=st.lists(_cidrs, max_size=4))
@settings(max_examples=200, deadline=None)
def test_coverage_zone_matches_ipaddress(address, cidrs):
    def reference(ip):
        parsed = ipaddress.IPv4Address(ip)
        best = -1
        for cidr in cidrs:
            network = ipaddress.IPv4Network(cidr)
            if parsed in network:
                best = max(best, network.prefixlen)
        return best >= 0, max(best, 0)

    zone = CoverageZone("zone", cidrs, [])
    assert _outcome(zone.covers, address) == _outcome(reference, address)


@given(address=_addresses)
@settings(max_examples=200, deadline=None)
def test_split_namespace_matches_ipaddress(address):
    plugin = SplitNamespacePlugin(["10.40.0.0/16", "10.233.64.0/18"])
    plugin.internal_networks.append(ipaddress.IPv4Network("192.0.2.0/24"))

    def reference(ip):
        parsed = ipaddress.IPv4Address(ip)
        return any(parsed in network for network in plugin.internal_networks)

    assert _outcome(plugin.is_internal_client, address) == _outcome(
        reference, address)


@pytest.mark.parametrize("address", ["0.0.0.0", "10.45.0.2",
                                     "255.255.255.255"])
def test_a_record_packs_like_ipaddress(address):
    writer = WireWriter()
    A(address).to_wire(writer)
    assert writer.getvalue() == ipaddress.IPv4Address(address).packed
