"""IDL type validation."""

import pytest

from repro.serial import (
    ArrayType,
    BoolType,
    IdlError,
    OpaqueType,
    OptionalType,
    StringType,
    StructType,
    U32Type,
)


def test_u32_accepts_range():
    t = U32Type()
    t.validate(0)
    t.validate(2**32 - 1)
    for bad in (-1, 2**32, 1.5, "x", True):
        with pytest.raises(IdlError):
            t.validate(bad)


def test_bool_strict():
    t = BoolType()
    t.validate(True)
    with pytest.raises(IdlError):
        t.validate(1)


def test_string_limits():
    t = StringType(5)
    t.validate("abcde")
    with pytest.raises(IdlError):
        t.validate("abcdef")
    with pytest.raises(IdlError):
        t.validate(b"bytes")
    with pytest.raises(ValueError):
        StringType(-1)


def test_opaque_limits():
    t = OpaqueType(4)
    t.validate(b"abcd")
    with pytest.raises(IdlError):
        t.validate(b"abcde")
    with pytest.raises(IdlError):
        t.validate("str")


def test_array_validates_elements():
    t = ArrayType(U32Type(), max_length=3)
    t.validate([1, 2, 3])
    with pytest.raises(IdlError):
        t.validate([1, 2, 3, 4])
    with pytest.raises(IdlError, match=r"array\[1\]"):
        t.validate([1, "x"])
    with pytest.raises(TypeError):
        ArrayType("not a type")  # type: ignore[arg-type]


def test_struct_field_checks():
    t = StructType("Pair", [("a", U32Type()), ("b", StringType())])
    t.validate({"a": 1, "b": "x"})
    with pytest.raises(IdlError, match="missing"):
        t.validate({"a": 1})
    with pytest.raises(IdlError, match="extra"):
        t.validate({"a": 1, "b": "x", "c": 2})
    with pytest.raises(IdlError, match=r"Pair\.a"):
        t.validate({"a": "wrong", "b": "x"})
    with pytest.raises(ValueError):
        StructType("Dup", [("a", U32Type()), ("a", U32Type())])
    with pytest.raises(ValueError):
        StructType("Empty", [])


def test_optional_accepts_none():
    t = OptionalType(U32Type())
    t.validate(None)
    t.validate(7)
    with pytest.raises(IdlError):
        t.validate("x")
