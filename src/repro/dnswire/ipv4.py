"""IPv4 text parsed once: the per-query address helpers.

Every routed query asks the same few questions of the same few strings
(is this client in that coverage CIDR, is it an internal VNF address,
what does this A record pack to), and :mod:`ipaddress` re-parses the
text each time.  These helpers parse each distinct string once and keep
the integer form in a bounded :func:`functools.lru_cache`.

Misses go through :mod:`ipaddress` itself, so a bad input raises exactly
the error it raised before (``AddressValueError``, ``NetmaskValueError``
or the host-bits ``ValueError``); ``lru_cache`` never stores a call that
raised.  The cache is pure: a key fully determines its value, so hits,
misses and evictions never change any output.
"""

from __future__ import annotations

import functools
import ipaddress
from typing import Tuple, Union

#: Entries per cache.  Simulated topologies hold a few dozen addresses
#: and CIDRs; the bound only matters for address-churning workloads.
_CACHE_SIZE = 4096

#: What :class:`ipaddress.IPv4Address` accepts.
AddressLike = Union[str, int, bytes]


@functools.lru_cache(maxsize=_CACHE_SIZE)
def ipv4_int(address: AddressLike) -> int:
    """``int(IPv4Address(address))``."""
    return int(ipaddress.IPv4Address(address))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def ipv4_text(address: AddressLike) -> str:
    """``str(IPv4Address(address))``: the canonical dotted quad."""
    return str(ipaddress.IPv4Address(address))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def ipv4_network(cidr: str) -> Tuple[int, int, int]:
    """``(network, netmask, prefixlen)`` of ``IPv4Network(cidr)`` as ints.

    An address ``a`` is inside the network exactly when
    ``a & netmask == network``.
    """
    network = ipaddress.IPv4Network(cidr)
    return (int(network.network_address), int(network.netmask),
            network.prefixlen)
