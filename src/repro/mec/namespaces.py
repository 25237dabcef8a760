"""Split public/internal DNS namespaces.

The paper's §3: "exposing an internal DNS publicly to clients increases
the attack surface for the vRAN itself by exposing the vRAN IP namespace.
To avoid that, we first run a split-namespace DNS ... one namespace
instance dedicated for internal VNFs, and another namespace instance for
publicly visible IPs, i.e., for MEC-CDN.  The publicly visible namespace
is populated when a MEC-CDN instance is deployed."

:class:`SplitNamespacePlugin` sits first in the CoreDNS chain.  Internal
clients (the VNF subnets) see everything.  Public clients (UEs) may only
resolve names registered in the public namespace; anything else is either
refused or silently ignored — the latter matching the paper's
"MEC DNS ignore queries not related to MEC-CDN ... forwarded to L-DNS on
timeout from MEC DNS" workaround.
"""

from __future__ import annotations

import enum
import ipaddress
from typing import Generator, List, Set

from repro.dnswire.ipv4 import ipv4_int
from repro.dnswire.message import make_response
from repro.dnswire.name import Name
from repro.dnswire.types import Rcode
from repro.resolver.chain import Plugin, QueryContext


class NamespacePolicy(enum.Enum):
    """What a public client gets for a non-public name."""

    REFUSE = "refuse"    # answer REFUSED immediately
    IGNORE = "ignore"    # stay silent; the client times out and falls back


class SplitNamespacePlugin(Plugin):
    """Front-of-chain policy separating internal and public views."""

    name = "split-namespace"

    def __init__(self, internal_networks: List[str],
                 policy: NamespacePolicy = NamespacePolicy.REFUSE) -> None:
        self.internal_networks: List[ipaddress.IPv4Network] = [
            ipaddress.IPv4Network(cidr) for cidr in internal_networks]
        self.policy = policy
        self._public_suffixes: Set[Name] = set()
        self.refused = 0
        self.ignored = 0

    # -- namespace management ------------------------------------------------

    def register_public(self, suffix: Name) -> None:
        """Publish ``suffix`` (called when a MEC-CDN instance deploys)."""
        self._public_suffixes.add(suffix)

    def unregister_public(self, suffix: Name) -> None:
        """Withdraw a suffix from the public namespace."""
        self._public_suffixes.discard(suffix)

    def is_public(self, qname: Name) -> bool:
        """Whether ``qname`` falls under any published public suffix."""
        return any(qname.is_subdomain_of(suffix)
                   for suffix in self._public_suffixes)

    def is_internal_client(self, ip: str) -> bool:
        """Whether ``ip`` belongs to the internal VNF networks."""
        address = ipv4_int(ip)
        for network in self.internal_networks:
            if address & int(network.netmask) == int(network.network_address):
                return True
        return False

    @property
    def public_suffixes(self) -> List[Name]:
        return sorted(self._public_suffixes)

    # -- chain hook -----------------------------------------------------------

    def handle(self, ctx: QueryContext, next_plugin) -> Generator:
        """Chain hook: answer, annotate, or delegate to ``next_plugin``."""
        if self.is_internal_client(ctx.client.ip):
            ctx.metadata["namespace"] = "internal"
            response = yield from next_plugin(ctx)
            return response
        if self.is_public(ctx.qname):
            ctx.metadata["namespace"] = "public"
            response = yield from next_plugin(ctx)
            return response
        ctx.metadata["namespace"] = "blocked"
        if self.policy is NamespacePolicy.IGNORE:
            self.ignored += 1
            return None  # no response at all; client falls back on timeout
        self.refused += 1
        return make_response(ctx.query, rcode=Rcode.REFUSED)
