"""XDR and Courier wire formats: round-trips, alignment, errors."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.serial import (
    ArrayType,
    BoolType,
    CourierRepresentation,
    OpaqueType,
    OptionalType,
    StringType,
    StructType,
    U32Type,
    WireError,
    XdrRepresentation,
)

REPS = [XdrRepresentation(), CourierRepresentation()]

NESTED = StructType(
    "Nested",
    [
        ("id", U32Type()),
        ("flag", BoolType()),
        ("label", StringType(64)),
        ("blob", OpaqueType(32)),
        ("tags", ArrayType(StringType(16), 8)),
        ("maybe", OptionalType(U32Type())),
    ],
)

SAMPLE = {
    "id": 7,
    "flag": True,
    "label": "clearinghouse",
    "blob": b"\x01\x02\x03",
    "tags": ["a", "bb", "ccc"],
    "maybe": None,
}


@pytest.mark.parametrize("rep", REPS, ids=lambda r: r.name)
def test_nested_roundtrip(rep):
    data = rep.encode(NESTED, SAMPLE)
    assert rep.decode(NESTED, data) == SAMPLE


def test_xdr_pads_to_four():
    rep = XdrRepresentation()
    data = rep.encode(StringType(), "abc")
    assert len(data) == 8  # 4 length + 3 chars + 1 pad
    assert data[-1] == 0


def test_courier_pads_to_two():
    rep = CourierRepresentation()
    data = rep.encode(StringType(), "abc")
    assert len(data) == 6  # 2 length + 3 chars + 1 pad


def test_representations_differ_on_wire():
    xdr, courier = REPS
    assert xdr.encode(NESTED, SAMPLE) != courier.encode(NESTED, SAMPLE)


@pytest.mark.parametrize("rep", REPS, ids=lambda r: r.name)
def test_decode_rejects_trailing_garbage(rep):
    data = rep.encode(U32Type(), 5) + b"\x00"
    with pytest.raises(WireError):
        rep.decode(U32Type(), data)


@pytest.mark.parametrize("rep", REPS, ids=lambda r: r.name)
def test_decode_rejects_truncation(rep):
    data = rep.encode(NESTED, SAMPLE)
    with pytest.raises(WireError):
        rep.decode(NESTED, data[:-4])


def test_decode_rejects_oversized_array_length():
    rep = XdrRepresentation()
    t = ArrayType(U32Type(), max_length=2)
    # Hand-craft a length prefix of 3.
    from repro.serial.idl import IdlError

    with pytest.raises(IdlError):
        rep.decode(t, struct.pack(">IIII", 3, 1, 2, 3))


# ----------------------------------------------------------------------
# Property tests: encode/decode are inverses for arbitrary values.
# ----------------------------------------------------------------------
values = st.fixed_dictionaries(
    {
        "id": st.integers(min_value=0, max_value=2**32 - 1),
        "flag": st.booleans(),
        "label": st.text(
            alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=64
        ),
        "blob": st.binary(max_size=32),
        "tags": st.lists(
            st.text(
                alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                max_size=16,
            ),
            max_size=8,
        ),
        "maybe": st.none() | st.integers(min_value=0, max_value=2**32 - 1),
    }
)


@given(values)
@settings(max_examples=60, deadline=None)
def test_xdr_roundtrip_property(value):
    rep = XdrRepresentation()
    assert rep.decode(NESTED, rep.encode(NESTED, value)) == value


@given(values)
@settings(max_examples=60, deadline=None)
def test_courier_roundtrip_property(value):
    rep = CourierRepresentation()
    assert rep.decode(NESTED, rep.encode(NESTED, value)) == value


@given(values)
@settings(max_examples=40, deadline=None)
def test_xdr_encoding_is_deterministic(value):
    rep = XdrRepresentation()
    assert rep.encode(NESTED, value) == rep.encode(NESTED, value)
