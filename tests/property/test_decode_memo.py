"""Differential tests for the decode memo behind ``Message.from_wire``.

A memo hit must be indistinguishable from a cold decode of the same
bytes: same fields, same ``to_wire()`` bytes, same error class.  Wire
that fails to parse is never answered from the memo, and mutating the
message a hit hands out never leaks into a later decode.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.dnswire import message as message_module
from repro.dnswire.edns import (ClientSubnet, Edns, ExtendedDnsError,
                                OpaqueOption)
from repro.dnswire.message import (Flags, Message, Question, ResourceRecord,
                                   clear_wire_memo, make_query)
from repro.dnswire.name import Name
from repro.dnswire.rdata import A, CNAME, TXT
from repro.dnswire.types import Opcode, Rcode, RecordType

_label = st.text(alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz0123456789-"),
                 min_size=1, max_size=12)
_names = st.lists(_label, min_size=1, max_size=4).map(
    lambda labels: Name(".".join(labels)))
_ipv4 = st.integers(min_value=0, max_value=2**32 - 1).map(
    lambda value: ".".join(str((value >> shift) & 0xFF)
                           for shift in (24, 16, 8, 0)))
_options = st.one_of(
    st.tuples(_ipv4, st.integers(0, 32), st.integers(0, 32)).map(
        lambda args: ClientSubnet(*args)),
    st.tuples(st.integers(0, 30), st.text(alphabet="ab c", max_size=8)).map(
        lambda args: ExtendedDnsError(*args)),
    st.binary(max_size=6).map(lambda data: OpaqueOption(10, data)),
)
_edns = st.one_of(
    st.none(),
    st.builds(Edns, udp_payload=st.integers(512, 4096),
              version=st.integers(0, 1), dnssec_ok=st.booleans(),
              options=st.lists(_options, max_size=3)))
_records = st.one_of(
    st.tuples(_names, _ipv4, st.integers(0, 86400)).map(
        lambda args: ResourceRecord(args[0], RecordType.A, args[2],
                                    A(args[1]))),
    st.tuples(_names, _names, st.integers(0, 86400)).map(
        lambda args: ResourceRecord(args[0], RecordType.CNAME, args[2],
                                    CNAME(args[1]))),
    st.tuples(_names, st.text(alphabet="txt ", max_size=20)).map(
        lambda args: ResourceRecord(args[0], RecordType.TXT, 30,
                                    TXT.from_string(args[1]))),
)


@st.composite
def messages(draw):
    msg = Message(msg_id=draw(st.integers(0, 0xFFFF)),
                  flags=Flags.from_bits(draw(st.integers(0, 0xFFFF))),
                  opcode=draw(st.sampled_from([Opcode.QUERY, Opcode.NOTIFY,
                                               Opcode.UPDATE])),
                  rcode=draw(st.sampled_from(list(Rcode))))
    msg.questions = [Question(name, rtype) for name, rtype in draw(st.lists(
        st.tuples(_names, st.sampled_from([RecordType.A, RecordType.AAAA,
                                           RecordType.TXT])),
        max_size=2))]
    msg.answers = draw(st.lists(_records, max_size=3))
    msg.authorities = draw(st.lists(_records, max_size=2))
    msg.additionals = draw(st.lists(_records, max_size=2))
    msg.edns = draw(_edns)
    if msg.edns is None and int(msg.rcode) > 0xF:
        msg.rcode = Rcode.NOERROR  # extended rcodes need an OPT record
    return msg


@st.composite
def wires(draw):
    """Encoded messages, some of them truncated or with octets flipped."""
    wire = bytearray(draw(messages()).to_wire())
    mutation = draw(st.sampled_from(["none", "flip", "truncate", "splice"]))
    if mutation == "flip":
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(wire) - 1))
            wire[at] = draw(st.integers(0, 255))
    elif mutation == "truncate":
        del wire[draw(st.integers(0, len(wire) - 1)):]
    elif mutation == "splice":
        at = draw(st.integers(2, len(wire)))
        wire[at:at] = draw(st.binary(min_size=1, max_size=6))
    return bytes(wire)


def _outcome(read):
    """``("ok", value)`` or ``("error", exception class)`` of ``read()``."""
    try:
        return ("ok", read())
    except Exception as error:  # noqa: BLE001 - the class is the result
        return ("error", type(error))


def _observe(wire):
    """Everything a caller can see of ``Message.from_wire(wire)``."""
    try:
        msg = Message.from_wire(wire)
    except Exception as error:  # noqa: BLE001 - the class is the result
        return ("decode-error", type(error))
    pristine = msg.to_wire()
    return (
        "decoded", pristine, msg.msg_id, msg.flags.to_bits(), msg.opcode,
        msg.rcode, list(msg.questions), msg.edns,
        _outcome(lambda: list(msg.answers)),
        _outcome(lambda: list(msg.authorities)),
        _outcome(lambda: list(msg.additionals)),
        _outcome(msg.to_wire),
    )


class _EagerMessage(Message):
    """Subclasses decode eagerly: the reference the lazy view must match."""


def _eager_reference(wire):
    """The eager decode of ``wire`` in ``_observe``'s shape, or ``None``."""
    try:
        msg = _EagerMessage.from_wire(wire)
    except Exception:  # noqa: BLE001 - the lazy view may defer this error
        return None
    return (
        "decoded", wire, msg.msg_id, msg.flags.to_bits(), msg.opcode,
        msg.rcode, list(msg.questions), msg.edns,
        ("ok", msg.answers), ("ok", msg.authorities),
        ("ok", msg.additionals), ("ok", msg.to_wire()),
    )


def _with_id(wire, msg_id):
    return struct.pack("!H", msg_id) + wire[2:] if len(wire) >= 2 else wire


def _memo_entry(wire):
    return message_module._DECODE_MEMO.get(wire[2:])


@given(wire=wires(), other_id=st.integers(0, 0xFFFF))
@settings(max_examples=300, deadline=None)
def test_memo_hit_matches_cold_decode(wire, other_id):
    twin = _with_id(wire, other_id)
    clear_wire_memo()
    cold = _observe(twin)
    clear_wire_memo()
    _observe(wire)
    _observe(wire)
    hit = _observe(twin)
    assert hit == cold
    if cold[0] == "decoded":
        assert isinstance(_memo_entry(wire), tuple)  # really a memo hit
        assert hit[1] == twin
        assert hit[2] == struct.unpack("!H", twin[:2])[0]
        if all(outcome[0] == "ok" for outcome in hit[8:]):
            assert hit == _eager_reference(twin)


@given(wire=wires())
@settings(max_examples=300, deadline=None)
def test_failed_parse_is_never_memoised(wire):
    clear_wire_memo()
    first = _observe(wire)
    if first[0] != "decode-error":
        return
    for _ in range(3):
        assert _observe(wire) == first
        assert not isinstance(_memo_entry(wire), tuple)


def _ecs_query(msg_id):
    query = make_query(Name("video.demo1.mycdn.ciab.test"), msg_id=msg_id,
                       edns=Edns(options=[ClientSubnet("10.45.0.2", 24)]))
    return query.to_wire()


@pytest.mark.parametrize("mutate", [
    lambda msg: setattr(msg.flags, "qr", True),
    lambda msg: setattr(msg.flags, "rd", False),
    lambda msg: msg.questions.append(
        Question(Name("other.test"), RecordType.AAAA)),
    lambda msg: msg.questions.clear(),
    # What CoreDNS's ECS injection does to a forwarded query.
    lambda msg: msg.edns.options.append(ClientSubnet("10.233.64.7", 24)),
    lambda msg: setattr(msg.edns, "udp_payload", 512),
    lambda msg: setattr(msg, "msg_id", 7),
    lambda msg: setattr(msg, "rcode", Rcode.SERVFAIL),
], ids=["flags.qr", "flags.rd", "questions.append", "questions.clear",
        "edns.options.append", "edns.udp_payload", "msg_id", "rcode"])
def test_mutating_a_hit_never_reaches_a_later_decode(mutate):
    wire = _ecs_query(41)
    clear_wire_memo()
    reference = _observe(wire)
    clear_wire_memo()
    Message.from_wire(wire)
    Message.from_wire(wire)
    hit = Message.from_wire(_with_id(wire, 42))
    assert isinstance(_memo_entry(wire), tuple)
    mutate(hit)
    assert hit.to_wire() != _with_id(wire, 42)  # the mutation took
    assert _observe(wire) == reference
    assert Message.from_wire(wire).to_wire() == wire


def test_each_hit_hands_out_fresh_mutable_parts():
    wire = _ecs_query(1)
    clear_wire_memo()
    first, second = Message.from_wire(wire), Message.from_wire(wire)
    third = Message.from_wire(wire)
    for one, other in ((first, second), (second, third), (first, third)):
        assert one.flags is not other.flags
        assert one.questions is not other.questions
        assert one.edns is not other.edns
        assert one.edns.options is not other.edns.options


def test_clear_wire_memo_drops_decodes():
    wire = _ecs_query(3)
    Message.from_wire(wire)
    Message.from_wire(wire)
    assert isinstance(_memo_entry(wire), tuple)
    clear_wire_memo()
    assert _memo_entry(wire) is None


def test_memo_stays_bounded():
    clear_wire_memo()
    limit = message_module._DECODE_MEMO_MAX
    for index in range(limit + 10):
        query = make_query(Name(f"n{index}.test"), msg_id=index & 0xFFFF)
        Message.from_wire(query.to_wire())
    assert len(message_module._DECODE_MEMO) <= limit
    clear_wire_memo()
