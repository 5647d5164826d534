"""Interface description language types.

The HRPC prototype described its BIND message format "using our
interface description language, and used the marshalling code generated
by our stub compiler".  This module is that IDL: a small algebra of
types whose values are plain Python objects (ints, bools, str, bytes,
dicts, lists).
"""

from __future__ import annotations

import typing

from repro.memo import first_use


class IdlError(Exception):
    """A value does not conform to its declared IDL type."""


class IdlType:
    """Base class; subclasses validate Python values against the type."""

    name = "type"

    def validate(self, value: object) -> None:
        """Raise :class:`IdlError` if ``value`` does not fit this type."""
        raise NotImplementedError

    @first_use
    def codecs(self) -> dict:
        """(word bytes, alignment) -> this type's compiled codec."""
        return {}

    def __repr__(self) -> str:
        return f"<idl {self.name}>"


class U32Type(IdlType):
    """Unsigned 32-bit integer."""

    name = "u32"

    def validate(self, value: object) -> None:
        if not isinstance(value, int) or isinstance(value, bool):
            raise IdlError(f"u32 requires int, got {type(value).__name__}")
        if not 0 <= value < 2**32:
            raise IdlError(f"u32 out of range: {value}")


class BoolType(IdlType):
    """Boolean, encoded as a 32-bit 0/1 on the wire."""

    name = "bool"

    def validate(self, value: object) -> None:
        if not isinstance(value, bool):
            raise IdlError(f"bool requires bool, got {type(value).__name__}")


class StringType(IdlType):
    """Length-prefixed character string."""

    name = "string"

    def __init__(self, max_length: int = 65535):
        if max_length < 0:
            raise ValueError("max_length must be non-negative")
        self.max_length = max_length

    def validate(self, value: object) -> None:
        if not isinstance(value, str):
            raise IdlError(f"string requires str, got {type(value).__name__}")
        if len(value) > self.max_length:
            raise IdlError(
                f"string of {len(value)} chars exceeds max {self.max_length}"
            )


class OpaqueType(IdlType):
    """Length-prefixed uninterpreted bytes (BIND resource record data)."""

    name = "opaque"

    def __init__(self, max_length: int = 65535):
        if max_length < 0:
            raise ValueError("max_length must be non-negative")
        self.max_length = max_length

    def validate(self, value: object) -> None:
        if not isinstance(value, (bytes, bytearray)):
            raise IdlError(f"opaque requires bytes, got {type(value).__name__}")
        if len(value) > self.max_length:
            raise IdlError(
                f"opaque of {len(value)} bytes exceeds max {self.max_length}"
            )


class ArrayType(IdlType):
    """Variable-length array of a single element type."""

    name = "array"

    def __init__(self, element: IdlType, max_length: int = 4096):
        if not isinstance(element, IdlType):
            raise TypeError("array element must be an IdlType")
        if max_length < 0:
            raise ValueError("max_length must be non-negative")
        self.element = element
        self.max_length = max_length

    def validate(self, value: object) -> None:
        if not isinstance(value, (list, tuple)):
            raise IdlError(f"array requires list, got {type(value).__name__}")
        if len(value) > self.max_length:
            raise IdlError(
                f"array of {len(value)} elements exceeds max {self.max_length}"
            )
        for i, item in enumerate(value):
            try:
                self.element.validate(item)
            except IdlError as err:
                raise IdlError(f"array[{i}]: {err}") from err


class StructType(IdlType):
    """Record with named, ordered fields; values are dicts."""

    name = "struct"

    def __init__(self, name: str, fields: typing.Sequence[typing.Tuple[str, IdlType]]):
        if not fields:
            raise ValueError("struct needs at least one field")
        seen = set()
        for field_name, field_type in fields:
            if field_name in seen:
                raise ValueError(f"duplicate field {field_name!r}")
            if not isinstance(field_type, IdlType):
                raise TypeError(f"field {field_name!r} is not an IdlType")
            seen.add(field_name)
        self.struct_name = name
        self.fields = list(fields)

    def validate(self, value: object) -> None:
        if not isinstance(value, dict):
            raise IdlError(
                f"struct {self.struct_name} requires dict, got {type(value).__name__}"
            )
        expected = {name for name, _ in self.fields}
        actual = set(value.keys())
        if expected != actual:
            missing = expected - actual
            extra = actual - expected
            raise IdlError(
                f"struct {self.struct_name}: missing={sorted(missing)} "
                f"extra={sorted(extra)}"
            )
        for field_name, field_type in self.fields:
            try:
                field_type.validate(value[field_name])
            except IdlError as err:
                raise IdlError(f"{self.struct_name}.{field_name}: {err}") from err


class OptionalType(IdlType):
    """Value-or-absent, encoded as a presence flag (XDR 'pointer')."""

    name = "optional"

    def __init__(self, inner: IdlType):
        if not isinstance(inner, IdlType):
            raise TypeError("optional inner must be an IdlType")
        self.inner = inner

    def validate(self, value: object) -> None:
        if value is None:
            return
        self.inner.validate(value)

