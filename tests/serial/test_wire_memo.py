"""A marshaller computes the bytes and price of a wire value once.

``encode`` recalls its answer by a message's wire key, ``decode`` by the
bytes (:class:`repro.serial.generated.Marshaller`).  What is recalled
must be exactly what a fresh codec computes: the same bytes, the same
simulated cost to the bit, the same exception for a value the codec
rejects — and nothing a caller can change under another caller.
"""

import struct

import pytest

from repro.bind.messages import (
    STATUS_OK,
    BatchQueryRequest,
    BatchQueryResponse,
    BatchQuestion,
    QueryRequest,
    QueryResponse,
    UpdateBatchResponse,
)
from repro.bind.rr import ResourceRecord, RRType
from repro.discovery.messages import ProbeResponse
from repro.memo import MEMO_SIZE
from repro.serial import (
    CourierRepresentation,
    HandcodedMarshaller,
    IdlError,
    StubCompiler,
    WireError,
    XdrRepresentation,
)
from repro.serial.generated import Encoded, MarshalCost, _decoded, _encoded
from repro.serial.handcoded import HANDCODED_BASE_MS, HANDCODED_PER_BYTE_MS
from tests.serial.test_golden_vectors import _vectors, from_json, message_classes, message_idls

REPS = [XdrRepresentation(), CourierRepresentation()]
STYLES = ["handcoded", "generated"]
RECORDS = [
    ResourceRecord.a_record(f"host{i}.cs.washington.edu", f"128.95.1.{i}")
    for i in range(6)
]
#: messages the read path marshals, beside the corpus's random ones
READS = [
    QueryRequest("fiji.cs.washington.edu", RRType.A),
    QueryResponse(STATUS_OK, []),
    QueryResponse(STATUS_OK, RECORDS[:1]),
    QueryResponse(STATUS_OK, RECORDS),
    BatchQueryRequest(
        [BatchQuestion("cs.washington.edu", RRType.UNSPEC), BatchQuestion("*.x", RRType.A, 0, "ns")]
    ),
    BatchQueryResponse([QueryResponse(STATUS_OK, RECORDS[:2]), QueryResponse(3, [])]),
]


def marshaller(style, idl_type, rep=None):
    if style == "generated":
        return StubCompiler(rep).marshaller(idl_type)
    return HandcodedMarshaller(idl_type, representation=rep)


def fresh(style, idl_type, rep, value):
    """(bytes, cost) straight from the compiled codec and the style's price."""
    codec = StubCompiler(rep).compile(idl_type)
    wire = codec.encode(value)
    if style == "generated":
        return wire, MarshalCost(*codec.count_ops(value), len(wire)).time_ms()
    return wire, HANDCODED_BASE_MS + HANDCODED_PER_BYTE_MS * len(wire)


def corpus():
    """(IDL type, IDL value, the message it stands for or None)."""
    classes = {f"{cls.__module__}:{cls.__name__}": cls for cls in message_classes()}
    idls = message_idls()
    for vector in _vectors():
        idl_type = idls[vector["idl"]]
        value = from_json(idl_type, vector["value"])
        message = None
        if vector["idl"] in classes:
            try:
                message = classes[vector["idl"]].from_idl(value)
            except ValueError:  # random text is not a domain name, say
                pass
        yield idl_type, value, message
    for message in READS:
        yield message.idl_type, message.to_idl(), message


def calls(memo):
    info = memo.cache_info()
    return info.hits, info.misses


@pytest.mark.parametrize("rep", REPS, ids=lambda r: r.name)
@pytest.mark.parametrize("style", STYLES)
def test_a_hit_a_miss_and_a_fresh_codec_agree_to_the_bit(style, rep):
    keyed = 0
    for idl_type, value, message in corpus():
        m = marshaller(style, idl_type, rep)
        if message is not None:
            expected = fresh(style, idl_type, rep, message.to_idl())
            hits, misses = calls(_encoded)
            miss = m.encode(message)
            hit = m.encode(message)
            assert calls(_encoded) == (hits + 1, misses + 1)
            assert miss == hit == expected
            assert hit[0] is miss[0]
            keyed += 1
        wire, cost = fresh(style, idl_type, rep, value)
        assert m.encode(value) == (wire, cost)  # an IDL value: never keyed
        hits, misses = calls(_decoded)
        miss = m.decode(wire)
        hit = m.decode(wire)
        assert calls(_decoded) == (hits + 1, misses + 1)
        assert miss == hit == (value, cost)
    assert keyed > len(READS)


def test_exact_keys_keep_every_type_check():
    """``1 == True == 1.0`` and all hash alike; a u32 takes only the
    first and a bool only the second, on every call."""
    m = HandcodedMarshaller(QueryResponse.idl_type)
    m.encode(QueryResponse(1, []))
    for status in (True, 1.0):
        for _ in range(2):
            with pytest.raises(IdlError, match="u32"):
                m.encode(QueryResponse(status, []))
    statuses = HandcodedMarshaller(UpdateBatchResponse.idl_type)
    statuses.encode(UpdateBatchResponse(0, 1, [1]))
    for _ in range(2):
        with pytest.raises(IdlError, match="u32"):
            statuses.encode(UpdateBatchResponse(0, 1, [True]))
    probe = HandcodedMarshaller(ProbeResponse.idl_type)
    probe.encode(ProbeResponse("svc", "host", 1, True))
    for _ in range(2):
        with pytest.raises(IdlError, match="bool"):
            probe.encode(ProbeResponse("svc", "host", 1, 1))


class CountingCodec:
    """A marshaller's codec that counts what reaches it."""

    def __init__(self, codec):
        self.codec = codec
        self.idl_type = codec.idl_type
        self.count_ops = codec.count_ops
        self.encodes = self.decodes = 0

    def encode(self, value):
        self.encodes += 1
        return self.codec.encode(value)

    def decode(self, data):
        self.decodes += 1
        return self.codec.decode(data)


@pytest.mark.parametrize("style", STYLES)
def test_a_call_that_raises_is_not_remembered(style):
    m = marshaller(style, QueryResponse.idl_type)
    m.codec = counting = CountingCodec(m.codec)
    too_big = QueryResponse(2**32, [])  # an exact int, so it is keyed
    assert too_big.wire_key() is not None
    for attempt in (1, 2):
        with pytest.raises(IdlError, match="out of range"):
            m.encode(too_big)
        assert counting.encodes == attempt
    for attempt in (1, 2):
        with pytest.raises(WireError):
            m.decode(b"\x00\x00")
        assert counting.decodes == attempt
    assert m.encode(QueryResponse(STATUS_OK, RECORDS))[0]


@pytest.mark.parametrize("rep", REPS, ids=lambda r: r.name)
@pytest.mark.parametrize("style", STYLES)
def test_damaged_copies_of_a_remembered_reply_reach_the_decoder(style, rep):
    sender = HandcodedMarshaller(QueryResponse.idl_type, representation=rep)
    wire, _ = sender.encode(QueryResponse(STATUS_OK, RECORDS[:2]))
    m = marshaller(style, QueryResponse.idl_type, rep)
    m.decode(wire)
    m.codec = counting = CountingCodec(m.codec)
    assert m.decode(wire)[0]["records"] and counting.decodes == 0
    word = struct.Struct({4: ">I", 2: ">H"}[rep.word_bytes])
    count_at = 4  # after the u32 status
    damaged = [wire[:cut] for cut in range(len(wire))]
    damaged.append(wire + b"\x00" * rep.alignment)
    damaged.append(wire[:count_at] + word.pack(3) + wire[count_at + word.size:])
    for data in damaged:
        for _ in range(2):
            with pytest.raises(WireError):
                m.decode(data)
    assert counting.decodes == 2 * len(damaged)


def test_the_memo_stays_bounded():
    m = HandcodedMarshaller(QueryRequest.idl_type)
    for i in range(MEMO_SIZE + 10):
        wire, _ = m.encode(QueryRequest(f"h{i}.example", RRType.A))
        m.decode(wire)
    for memo in (_encoded, _decoded):
        info = memo.cache_info()
        assert info.maxsize == MEMO_SIZE
        assert info.currsize == MEMO_SIZE


@pytest.mark.parametrize("style", STYLES)
def test_no_caller_can_change_what_another_recalls(style):
    wire, _ = HandcodedMarshaller(QueryResponse.idl_type).encode(
        QueryResponse(STATUS_OK, RECORDS[:2])
    )
    m = marshaller(style, QueryResponse.idl_type)
    first, _ = m.decode(wire)
    second, _ = m.decode(wire)
    assert first == second and first is not second
    expected = m.codec.decode(wire)
    first["status"] = 9
    first["records"].append(first["records"][0])
    first["records"][0]["ttl"] = 0
    second["records"].clear()
    third, _ = m.decode(wire)
    assert third == expected
    data, cost = m.encode(QueryResponse(STATUS_OK, RECORDS[:2]))
    assert type(data) is bytes and type(cost) is float


@pytest.mark.parametrize("rep", REPS, ids=["xdr", "courier"])
def test_an_encoded_value_is_one_codec_pass_per_marshaller(rep):
    """An :class:`Encoded` value is marshalled by the first ``encode``
    of each marshaller that is handed it, then handed back by identity;
    every answer is the fresh codec's, to the bit."""
    value = QueryResponse(STATUS_OK, RECORDS).to_idl()
    held = Encoded(value)
    idl_type = QueryResponse.idl_type
    hand, generated = (marshaller(style, idl_type, rep) for style in STYLES)
    first = hand.encode(held)
    assert first == fresh("handcoded", idl_type, rep, value)
    assert hand.encode(held) is first
    other = generated.encode(held)
    assert other == fresh("generated", idl_type, rep, value)
    assert other[1] != first[1]
    assert generated.encode(held) is other
