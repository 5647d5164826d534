"""Malformed input gets a classified error, never anything else.

ROADMAP item 4's invariant for the marshalling layer: whatever bytes
arrive and whatever value a caller hands over, every public entry point
answers with a value, :class:`WireError` (the bytes are wrong) or
:class:`IdlError` (they do not fit the declared type).
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.bind.messages import BatchQueryResponse, QueryRequest, QueryResponse
from repro.serial import (
    ArrayType,
    BoolType,
    CourierRepresentation,
    HandcodedMarshaller,
    IdlError,
    OpaqueType,
    OptionalType,
    StringType,
    StructType,
    StubCompiler,
    U32Type,
    WireError,
    XdrRepresentation,
)
from tests.serial.test_golden_vectors import _vectors, message_idls

CLASSIFIED = (WireError, IdlError)
REPS = [XdrRepresentation(), CourierRepresentation()]
#: the length/flag word of each representation
WORD = {"xdr": struct.Struct(">I"), "courier": struct.Struct(">H")}
BATCH_QUERY_RESPONSE_IDL = BatchQueryResponse.idl_type
QUERY_REQUEST_IDL = QueryRequest.idl_type
QUERY_RESPONSE_IDL = QueryResponse.idl_type


def entry_points(idl_type, rep):
    """(encode, decode) of the three public paths, results bytes/value only."""
    hand = HandcodedMarshaller(idl_type, representation=rep)
    generated = StubCompiler(rep).marshaller(idl_type)
    return [
        (lambda v: rep.encode(idl_type, v), lambda d: rep.decode(idl_type, d)),
        (lambda v: hand.encode(v)[0], lambda d: hand.decode(d)[0]),
        (lambda v: generated.encode(v)[0], lambda d: generated.decode(d)[0]),
    ]


def golden_wires(rep):
    idls = message_idls()
    for vector in _vectors():
        yield idls[vector["idl"]], bytes.fromhex(vector[rep.name]["wire"])


@pytest.mark.parametrize("rep", REPS, ids=lambda r: r.name)
def test_truncation_at_every_offset_and_trailing_bytes(rep):
    for idl_type, wire in golden_wires(rep):
        for _, decode in entry_points(idl_type, rep):
            for cut in range(len(wire)):
                with pytest.raises(CLASSIFIED):
                    decode(wire[:cut])
            for tail in (b"\x00", b"\x00" * rep.alignment, b"\xff" * 8):
                with pytest.raises(WireError):
                    decode(wire + tail)


@pytest.mark.parametrize("rep", REPS, ids=lambda r: r.name)
def test_oversize_length_words(rep):
    word = WORD[rep.name]
    too_many = word.pack(17) + b"\x00" * 512  # answers: array<..., 16>
    huge = b"\xff" * word.size + b"\x00" * 512
    for _, decode in entry_points(BATCH_QUERY_RESPONSE_IDL, rep):
        for data in (too_many, huge):
            with pytest.raises(IdlError):
                decode(data)
    # a string length word pointing past the end of the datagram
    for _, decode in entry_points(QUERY_REQUEST_IDL, rep):
        with pytest.raises(WireError):
            decode(b"\xff" * word.size + b"abcd" + b"\x00\x00\x00\x01")


@pytest.mark.parametrize("rep", REPS, ids=lambda r: r.name)
def test_invalid_utf8_is_a_wire_error(rep):
    data = WORD[rep.name].pack(2) + b"\xff\xfe" + b"\x00" * (-2 % rep.alignment)
    for _, decode in entry_points(StringType(8), rep):
        with pytest.raises(WireError):
            decode(data)


RECORD = {"name": "a.b", "rtype": 1, "rclass": 1, "ttl": 60, "data": b"\x01"}
BAD_VALUES = [
    (QUERY_REQUEST_IDL, {"name": "a.b"}),  # missing field
    (QUERY_REQUEST_IDL, {"name": "a.b", "rtype": 1, "extra": 2}),
    (QUERY_REQUEST_IDL, ["a.b", 1]),
    (QUERY_REQUEST_IDL, {"name": "a.b", "rtype": True}),  # bool as u32
    (QUERY_REQUEST_IDL, {"name": "a.b", "rtype": 2**32}),
    (QUERY_REQUEST_IDL, {"name": "a.b", "rtype": -1}),
    (QUERY_REQUEST_IDL, {"name": "a.b", "rtype": 1.0}),
    (QUERY_REQUEST_IDL, {"name": b"a.b", "rtype": 1}),
    (QUERY_REQUEST_IDL, {"name": "x" * 256, "rtype": 1}),
    (QUERY_RESPONSE_IDL, {"status": 0, "records": [RECORD] * 65}),
    (QUERY_RESPONSE_IDL, {"status": 0, "records": [dict(RECORD, data="str")]}),
    (QUERY_RESPONSE_IDL, {"status": 0, "records": [dict(RECORD, data=b"x" * 257)]}),
    (QUERY_RESPONSE_IDL, {"status": 0, "records": RECORD}),
    (BoolType(), 1),  # u32 as bool
    (OptionalType(BoolType()), 0),
    (ArrayType(U32Type(), 2), None),
    (OpaqueType(4), None),
]


@pytest.mark.parametrize("rep", REPS, ids=lambda r: r.name)
def test_values_that_do_not_fit_the_type(rep):
    for idl_type, value in BAD_VALUES:
        for encode, _ in entry_points(idl_type, rep):
            with pytest.raises(IdlError):
                encode(value)


def test_error_messages_carry_the_path_to_the_bad_field():
    value = {"status": 0, "records": [RECORD, dict(RECORD, ttl=True)]}
    for encode, _ in entry_points(QUERY_RESPONSE_IDL, REPS[0]):
        with pytest.raises(
            IdlError, match=r"QueryResponse\.records: array\[1\]: ResourceRecord\.ttl"
        ):
            encode(value)


def test_courier_length_word_overflow_is_a_wire_error():
    # 40 000 two-byte characters fit string<65535> but not a 16-bit length
    for encode, _ in entry_points(StringType(), REPS[1]):
        with pytest.raises(WireError):
            encode("é" * 40_000)
    assert len(REPS[0].encode(StringType(), "é" * 40_000)) == 80_004


def test_values_the_types_tolerate_still_encode():
    """``validate`` accepts tuples for arrays and bytearrays for opaques."""
    idl_type = StructType(
        "T", [("xs", ArrayType(U32Type(), 4)), ("blob", OpaqueType(4))]
    )
    for rep in REPS:
        for encode, decode in entry_points(idl_type, rep):
            wire = encode({"xs": (1, 2), "blob": bytearray(b"ab")})
            assert decode(wire) == {"xs": [1, 2], "blob": b"ab"}


@pytest.mark.parametrize("rep", REPS, ids=lambda r: r.name)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_corrupted_and_random_bytes_are_classified(rep, data):
    wires = [pair for pair in golden_wires(rep) if pair[1]]
    idl_type, wire = data.draw(st.sampled_from(wires))
    if data.draw(st.booleans()):
        corrupt = bytearray(wire)
        for _ in range(data.draw(st.integers(1, 4))):
            corrupt[data.draw(st.integers(0, len(wire) - 1))] = data.draw(
                st.integers(0, 255)
            )
        blob = bytes(corrupt)
    else:
        blob = data.draw(st.binary(max_size=96))
    for _, decode in entry_points(idl_type, rep):
        try:
            decode(blob)
        except CLASSIFIED:
            pass
