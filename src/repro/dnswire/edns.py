"""EDNS0 (RFC 6891) and the Client Subnet option (RFC 7871).

The paper evaluates ECS in §4 ("ECS changed the measurements by 1.01x,
1.08x and 0.95x"), so the option is implemented in full: family, source
prefix length, scope prefix length, and the truncated-address encoding
with the trailing-zero-bits requirement.

EDNS state travels on a message as an :class:`Edns` value; the message
codec (see :mod:`repro.dnswire.message`) renders it to/from the OPT
pseudo-record in the additional section.
"""

from __future__ import annotations

import enum
import ipaddress
import math
from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

from repro.dnswire.types import DEFAULT_EDNS_PAYLOAD
from repro.dnswire.wire import WireReader, WireWriter
from repro.errors import WireFormatError


class EdnsOptionCode(enum.IntEnum):
    """EDNS option codes used by this library."""

    ECS = 8  # RFC 7871 Client Subnet
    COOKIE = 10  # RFC 7873 (opaque passthrough only)
    EDE = 15  # RFC 8914 Extended DNS Errors


class AddressFamily(enum.IntEnum):
    """ECS address family numbers (from the IANA address-family registry)."""

    IPV4 = 1
    IPV6 = 2


class EdnsOption:
    """Base class for EDNS options; unknown options stay opaque."""

    code: int

    def to_wire(self) -> bytes:
        """Serialise to wire format."""
        raise NotImplementedError

    @classmethod
    def from_wire(cls, data: bytes) -> "EdnsOption":
        raise NotImplementedError


class OpaqueOption(EdnsOption):
    """An EDNS option this library does not interpret."""

    def __init__(self, code: int, data: bytes) -> None:
        self.code = code
        self.data = data

    def to_wire(self) -> bytes:
        """Serialise to wire format."""
        return self.data

    @classmethod
    def from_wire(cls, data: bytes) -> "OpaqueOption":  # pragma: no cover - not used
        raise NotImplementedError("OpaqueOption needs a code; built inline")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, OpaqueOption)
                and (self.code, self.data) == (other.code, other.data))

    def __hash__(self) -> int:
        return hash((self.code, self.data))


class ClientSubnet(EdnsOption):
    """RFC 7871 EDNS Client Subnet option.

    ``address`` is the full client address; only ``source_prefix`` bits are
    put on the wire and the remainder must be zero, which :meth:`to_wire`
    enforces by masking.
    """

    code = int(EdnsOptionCode.ECS)

    def __init__(self, address: str, source_prefix: int,
                 scope_prefix: int = 0) -> None:
        parsed = ipaddress.ip_address(address)
        self.family = AddressFamily.IPV4 if parsed.version == 4 else AddressFamily.IPV6
        max_bits = 32 if parsed.version == 4 else 128
        if not 0 <= source_prefix <= max_bits:
            raise WireFormatError(
                f"ECS source prefix {source_prefix} out of range for {address}")
        if not 0 <= scope_prefix <= max_bits:
            raise WireFormatError(
                f"ECS scope prefix {scope_prefix} out of range for {address}")
        # Mask host bits directly on the integer form.  This equals
        # ``ip_network(f"{address}/{source_prefix}",
        # strict=False).network_address`` without parsing the address a
        # second time (ECS options are built per query on the hot path).
        host_bits = max_bits - source_prefix
        masked = (int(parsed) >> host_bits) << host_bits
        self.address = str(type(parsed)(masked))
        self.source_prefix = source_prefix
        self.scope_prefix = scope_prefix

    def network(self) -> Union[ipaddress.IPv4Network, ipaddress.IPv6Network]:
        """The client subnet as an ipaddress network object."""
        return ipaddress.ip_network(f"{self.address}/{self.source_prefix}")

    def with_scope(self, scope_prefix: int) -> "ClientSubnet":
        """A copy with the server-assigned scope prefix (for responses)."""
        return ClientSubnet(self.address, self.source_prefix, scope_prefix)

    def to_wire(self) -> bytes:
        """Serialise to wire format."""
        packed = ipaddress.ip_address(self.address).packed
        prefix_octets = math.ceil(self.source_prefix / 8)
        writer = WireWriter()
        writer.write_u16(int(self.family))
        writer.write_u8(self.source_prefix)
        writer.write_u8(self.scope_prefix)
        writer.write_bytes(packed[:prefix_octets])
        return writer.getvalue()

    @classmethod
    def from_wire(cls, data: bytes) -> "ClientSubnet":
        reader = WireReader(data)
        family = reader.read_u16()
        source_prefix = reader.read_u8()
        scope_prefix = reader.read_u8()
        prefix_octets = math.ceil(source_prefix / 8)
        truncated = reader.read_bytes(prefix_octets)
        if family == AddressFamily.IPV4:
            padded = truncated + b"\x00" * (4 - len(truncated))
            address = str(ipaddress.IPv4Address(padded))
        elif family == AddressFamily.IPV6:
            padded = truncated + b"\x00" * (16 - len(truncated))
            address = str(ipaddress.IPv6Address(padded))
        else:
            raise WireFormatError(f"unknown ECS address family {family}")
        return cls(address, source_prefix, scope_prefix)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ClientSubnet)
                and (self.address, self.source_prefix, self.scope_prefix)
                == (other.address, other.source_prefix, other.scope_prefix))

    def __hash__(self) -> int:
        return hash((self.address, self.source_prefix, self.scope_prefix))

    def __repr__(self) -> str:
        return (f"ClientSubnet({self.address}/{self.source_prefix}, "
                f"scope={self.scope_prefix})")


class ExtendedDnsError(EdnsOption):
    """RFC 8914 Extended DNS Error option.

    Carries a 16-bit info-code plus optional UTF-8 extra text.  The
    resolver uses info-code 3 ("Stale Answer") to mark serve-stale
    responses (RFC 8767 §4 recommends exactly this), so clients and
    measurements can tell a fresh answer from one served past its TTL
    without any out-of-band signalling.
    """

    code = int(EdnsOptionCode.EDE)

    #: RFC 8914 §4.4: the answer was served from cache past its TTL.
    INFO_CODE_STALE_ANSWER = 3
    #: RFC 8914 §4.23: no reachable authority (the upstream was down).
    INFO_CODE_NETWORK_ERROR = 23

    def __init__(self, info_code: int, extra_text: str = "") -> None:
        if not 0 <= info_code <= 0xFFFF:
            raise WireFormatError(f"EDE info-code {info_code} out of range")
        self.info_code = info_code
        self.extra_text = extra_text

    @classmethod
    def stale_answer(cls, extra_text: str = "") -> "ExtendedDnsError":
        """The marker a serve-stale response carries."""
        return cls(cls.INFO_CODE_STALE_ANSWER, extra_text)

    @property
    def is_stale_answer(self) -> bool:
        return self.info_code == self.INFO_CODE_STALE_ANSWER

    def to_wire(self) -> bytes:
        """Serialise to wire format."""
        writer = WireWriter()
        writer.write_u16(self.info_code)
        writer.write_bytes(self.extra_text.encode("utf-8"))
        return writer.getvalue()

    @classmethod
    def from_wire(cls, data: bytes) -> "ExtendedDnsError":
        reader = WireReader(data)
        info_code = reader.read_u16()
        extra = reader.read_bytes(reader.remaining)
        try:
            text = extra.decode("utf-8")
        except UnicodeDecodeError as error:
            raise WireFormatError(f"EDE extra text is not UTF-8: {error}")
        return cls(info_code, text)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ExtendedDnsError)
                and (self.info_code, self.extra_text)
                == (other.info_code, other.extra_text))

    def __hash__(self) -> int:
        return hash((self.code, self.info_code, self.extra_text))

    def __repr__(self) -> str:
        text = f", {self.extra_text!r}" if self.extra_text else ""
        return f"ExtendedDnsError({self.info_code}{text})"


_OPTION_CLASSES: Dict[int, Type[EdnsOption]] = {
    int(EdnsOptionCode.ECS): ClientSubnet,
    int(EdnsOptionCode.EDE): ExtendedDnsError,
}


class Edns:
    """EDNS state for a message: payload size, extended rcode, options."""

    def __init__(self, udp_payload: int = DEFAULT_EDNS_PAYLOAD, version: int = 0,
                 dnssec_ok: bool = False,
                 options: Optional[Sequence[EdnsOption]] = None) -> None:
        self.udp_payload = udp_payload
        self.version = version
        self.dnssec_ok = dnssec_ok
        self.options: List[EdnsOption] = list(options or [])

    def option(self, code: int) -> Optional[EdnsOption]:
        """The first option with the given code, or None."""
        for opt in self.options:
            if opt.code == code:
                return opt
        return None

    @property
    def client_subnet(self) -> Optional[ClientSubnet]:
        opt = self.option(int(EdnsOptionCode.ECS))
        return opt if isinstance(opt, ClientSubnet) else None

    @property
    def extended_error(self) -> Optional[ExtendedDnsError]:
        opt = self.option(int(EdnsOptionCode.EDE))
        return opt if isinstance(opt, ExtendedDnsError) else None

    def cache_key(self) -> "Tuple[object, ...]":
        """A hashable snapshot of everything the OPT record encodes.

        The message-level wire memo (:func:`repro.dnswire.message.cached_wire`)
        keys on this; it covers the fixed OPT fields plus the option list,
        so two Edns values with equal keys render identical OPT bytes.
        Options are value-hashable (ClientSubnet, ExtendedDnsError,
        OpaqueOption all hash on content); a foreign option type without
        ``__hash__`` makes the key unhashable, which the memo treats as
        "encode directly".
        """
        return (self.udp_payload, self.version, self.dnssec_ok,
                tuple(self.options))

    def options_to_wire(self) -> bytes:
        """Encode the option list as OPT rdata octets."""
        writer = WireWriter()
        for opt in self.options:
            data = opt.to_wire()
            writer.write_u16(opt.code)
            writer.write_u16(len(data))
            writer.write_bytes(data)
        return writer.getvalue()

    @classmethod
    def options_from_wire(cls, data: bytes) -> List[EdnsOption]:
        reader = WireReader(data)
        options: List[EdnsOption] = []
        while reader.remaining:
            code = reader.read_u16()
            length = reader.read_u16()
            payload = reader.read_bytes(length)
            option_cls = _OPTION_CLASSES.get(code)
            if option_cls is None:
                options.append(OpaqueOption(code, payload))
            else:
                options.append(option_cls.from_wire(payload))
        return options

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Edns)
                and (self.udp_payload, self.version, self.dnssec_ok, self.options)
                == (other.udp_payload, other.version, other.dnssec_ok, other.options))

    def __repr__(self) -> str:
        return (f"Edns(payload={self.udp_payload}, version={self.version}, "
                f"do={self.dnssec_ok}, options={self.options!r})")
