"""The stub compiler: (IDL type, representation) -> compiled codec.

A 1987 stub compiler emits one marshalling routine per type node.  This
one does the same with closures: for an IDL type under a
:class:`Representation` it builds, once, a tree of specialised routines
— ``struct`` packers bound at compile time, the representation's word
width and alignment baked in as constants, the type checks of
``IdlType.validate`` folded into the encode pass, decoding by offset
into the buffer.  There is one :class:`Codec` per (type,
representation), shared by both marshaller styles; the styles differ
only in how they *price* the bytes (:mod:`repro.serial.handcoded`:
base + per byte; :mod:`repro.serial.generated`: the operation counts
below).

Counting rules for the generated style (priced by
:class:`~repro.serial.generated.OpCosts`):

- entering any node's routine: **1 procedure call**;
- a parent dispatching to a child routine: **1 indirect call**;
- materialising a container (struct dict, array list) or a fresh
  string/bytes object: **1 dynamic allocation**.

Encoding and decoding a value walk the same routines, so both cost the
same counts, and the counts depend only on the value's shape: whatever
the type alone decides is summed here at compile time, and only array
lengths and optional presence are counted per value.
"""

from __future__ import annotations

import struct
import typing

from repro.serial.generated import DEFAULT_OP_COSTS, GeneratedMarshaller, OpCosts
from repro.serial.idl import (
    ArrayType,
    BoolType,
    IdlError,
    IdlType,
    OpaqueType,
    OptionalType,
    StringType,
    StructType,
    U32Type,
)

#: (procedure calls, indirect calls, allocations)
Ops = typing.Tuple[int, int, int]
_Emit = typing.Callable[[bytes], None]
_Encode = typing.Callable[[typing.Any, _Emit], None]
_Decode = typing.Callable[[bytes, int], typing.Tuple[typing.Any, int]]
_CountOps = typing.Optional[typing.Callable[[typing.Any], Ops]]

_U32 = struct.Struct(">I")
_U32_MAX = 2**32 - 1


class WireError(Exception):
    """Malformed wire data (truncation, trailing bytes, bad lengths)."""


class Representation:
    """The parameters of a data representation — the HRPC "black box"
    a binding mixes and matches.  A u32 is four big-endian bytes in
    both; what differs is the width of a length word, presence flag or
    boolean, and the boundary variable-length data is padded to.
    """

    name: str
    #: bytes in a length word, presence flag or boolean
    word_bytes: int
    #: strings and opaques are zero-padded to a multiple of this
    alignment: int

    def encode(self, idl_type: IdlType, value: object) -> bytes:
        return StubCompiler(self).compile(idl_type).encode(value)

    def decode(self, idl_type: IdlType, data: bytes) -> object:
        return StubCompiler(self).compile(idl_type).decode(data)


class XdrRepresentation(Representation):
    """Sun XDR: everything in multiples of four bytes (Sun RPC)."""

    name = "xdr"
    word_bytes = 4
    alignment = 4


class CourierRepresentation(Representation):
    """Xerox Courier: 16-bit units — different bytes than XDR for the
    same value, the heterogeneity the data-representation component hides."""

    name = "courier"
    word_bytes = 2
    alignment = 2


class _Routines(typing.NamedTuple):
    """What the compiler emits for one type node."""

    encode: _Encode
    decode: _Decode
    #: counts the type's shape fixes, this node and everything below it
    ops: Ops
    #: counts that depend on the value (None when there are none)
    count_ops: _CountOps


class Codec:
    """The compiled routines for one IDL type under one representation."""

    def __init__(self, idl_type: IdlType, root: _Routines):
        self.idl_type = idl_type
        self._root = root

    def encode(self, value: object) -> bytes:
        """Check ``value`` against the type and marshal it, in one pass."""
        chunks: typing.List[bytes] = []
        try:
            self._root.encode(value, chunks.append)
        except IdlError:
            # The routines only detect; the reference walk names the
            # path to the offending field.
            self.idl_type.validate(value)
            raise
        except UnicodeEncodeError as err:
            raise IdlError(f"string is not encodable: {err}") from err
        return b"".join(chunks)

    def decode(self, data: bytes) -> typing.Any:
        try:
            value, end = self._root.decode(data, 0)
        except struct.error:
            raise WireError(f"truncated: {len(data)} bytes") from None
        except UnicodeDecodeError as err:
            raise WireError(f"string is not UTF-8: {err}") from err
        if end > len(data):
            raise WireError(f"truncated: {len(data)} bytes, padding missing")
        if end < len(data):
            raise WireError(f"{len(data) - end} trailing bytes after decode")
        return value

    def count_ops(self, value: typing.Any) -> Ops:
        """What a stub-compiled routine tree spends on ``value``."""
        root = self._root
        if root.count_ops is None:
            return root.ops
        return _add(root.ops, root.count_ops(value))


def _add(a: Ops, b: Ops) -> Ops:
    return a[0] + b[0], a[1] + b[1], a[2] + b[2]


#: (type, word_bytes, alignment) -> codec.  Keyed on the type object
#: itself, which the entry keeps alive: an ``id()`` could be reused.
_CODECS: typing.Dict[typing.Tuple[IdlType, int, int], Codec] = {}


class StubCompiler:
    """Compiles IDL types for one representation (default Sun XDR).

    Codecs are cached per (type, representation parameters) for the
    life of the process, as a real stub compiler emits each routine once.
    """

    def __init__(self, representation: typing.Optional[Representation] = None):
        self.representation = representation or XdrRepresentation()
        rep = self.representation
        if 4 % rep.alignment or rep.word_bytes % rep.alignment:
            # Padding is computed from a string's own length, which is
            # only right while every item starts on a boundary.
            raise ValueError(f"{rep.name}: words must be multiples of the alignment")
        self._word = struct.Struct({2: ">H", 4: ">I"}[rep.word_bytes])

    def compile(self, idl_type: IdlType) -> Codec:
        rep = self.representation
        key = (idl_type, rep.word_bytes, rep.alignment)
        codec = _CODECS.get(key)
        if codec is None:
            codec = _CODECS[key] = Codec(idl_type, self._build(idl_type))
        return codec

    def marshaller(
        self, idl_type: IdlType, op_costs: OpCosts = DEFAULT_OP_COSTS
    ) -> GeneratedMarshaller:
        """Convenience: compile and wrap in a GeneratedMarshaller."""
        return GeneratedMarshaller(self.compile(idl_type), op_costs)

    # ------------------------------------------------------------------
    def _build(self, t: IdlType) -> _Routines:
        if isinstance(t, U32Type):
            return self._u32(t)
        if isinstance(t, BoolType):
            return self._bool(t)
        if isinstance(t, (StringType, OpaqueType)):
            return self._counted_bytes(t)
        if isinstance(t, ArrayType):
            return self._array(t, self._build(t.element))
        if isinstance(t, StructType):
            return self._struct(t, [self._build(ft) for _, ft in t.fields])
        if isinstance(t, OptionalType):
            return self._optional(self._build(t.inner))
        raise IdlError(f"cannot compile {t!r}")

    def _u32(self, t: U32Type) -> _Routines:
        validate, pack, unpack_from = t.validate, _U32.pack, _U32.unpack_from

        def encode(value: typing.Any, emit: _Emit) -> None:
            if type(value) is not int or not 0 <= value <= _U32_MAX:
                validate(value)  # raises, or passes an in-range int subclass
            emit(pack(value))

        def decode(data: bytes, pos: int) -> typing.Tuple[int, int]:
            return unpack_from(data, pos)[0], pos + 4

        return _Routines(encode, decode, (1, 0, 0), None)

    def _bool(self, t: BoolType) -> _Routines:
        validate, unpack_from, size = t.validate, self._word.unpack_from, self._word.size
        false, true = self._word.pack(0), self._word.pack(1)

        def encode(value: typing.Any, emit: _Emit) -> None:
            if value is True:
                emit(true)
            elif value is False:
                emit(false)
            else:
                validate(value)

        def decode(data: bytes, pos: int) -> typing.Tuple[bool, int]:
            return unpack_from(data, pos)[0] != 0, pos + size

        return _Routines(encode, decode, (1, 0, 0), None)

    def _counted_bytes(
        self, t: typing.Union[StringType, OpaqueType]
    ) -> _Routines:
        """Strings and opaques: length word, the bytes, zero padding."""
        validate, max_length = t.validate, t.max_length
        pack, unpack_from, size = self._word.pack, self._word.unpack_from, self._word.size
        word_max = 256**size - 1
        alignment = self.representation.alignment
        padding = [b"\x00" * (-n % alignment) for n in range(alignment)]
        text = isinstance(t, StringType)
        native = str if text else bytes

        def encode(value: typing.Any, emit: _Emit) -> None:
            if type(value) is not native or len(value) > max_length:
                validate(value)  # raises, or passes a subclass / bytearray
            raw = value.encode("utf-8") if text else bytes(value)
            n = len(raw)
            if n > word_max:
                raise WireError(f"{n} bytes do not fit a {size}-byte length word")
            emit(pack(n))
            emit(raw)
            if n % alignment:
                emit(padding[n % alignment])

        def decode(data: bytes, pos: int) -> typing.Tuple[typing.Any, int]:
            start = pos + size
            n = unpack_from(data, pos)[0]
            end = start + n
            if end > len(data):
                raise WireError(
                    f"truncated: need {n} bytes at offset {start}, "
                    f"only {len(data) - start} remain"
                )
            raw = data[start:end]
            return (raw.decode("utf-8") if text else raw), end + (-n % alignment)

        # Generated code copies through a temporary buffer: 1 allocation.
        return _Routines(encode, decode, (1, 0, 1), None)

    def _array(self, t: ArrayType, element: _Routines) -> _Routines:
        validate, max_length = t.validate, t.max_length
        pack, unpack_from, size = self._word.pack, self._word.unpack_from, self._word.size
        word_max = 256**size - 1
        encode_element, decode_element = element.encode, element.decode

        def encode(value: typing.Any, emit: _Emit) -> None:
            if type(value) is not list or len(value) > max_length:
                validate(value)  # raises, or passes a tuple
            if len(value) > word_max:
                raise WireError(f"{len(value)} elements do not fit a length word")
            emit(pack(len(value)))
            for item in value:
                encode_element(item, emit)

        def decode(data: bytes, pos: int) -> typing.Tuple[list, int]:
            n = unpack_from(data, pos)[0]
            if n > max_length:
                raise IdlError(f"array length {n} exceeds max {max_length}")
            pos += size
            items = []
            for _ in range(n):
                item, pos = decode_element(data, pos)
                items.append(item)
            return items, pos

        # Per element: its own routines plus the dispatch to them.
        per_p, per_i, per_a = _add(element.ops, (0, 1, 0))
        count_element = element.count_ops

        def count_ops(value: typing.Any) -> Ops:
            n = len(value)
            total = (n * per_p, n * per_i, n * per_a)
            if count_element is not None:
                for item in value:
                    total = _add(total, count_element(item))
            return total

        return _Routines(encode, decode, (1, 0, 1), count_ops)  # descriptor vector

    def _struct(self, t: StructType, fields: typing.List[_Routines]) -> _Routines:
        validate = t.validate
        names = [name for name, _ in t.fields]
        name_set = frozenset(names)
        encoders = [(name, f.encode) for name, f in zip(names, fields)]
        decoders = [(name, f.decode) for name, f in zip(names, fields)]

        def encode(value: typing.Any, emit: _Emit) -> None:
            if type(value) is not dict or value.keys() != name_set:
                validate(value)  # raises, or passes a dict subclass
            for name, encode_field in encoders:
                encode_field(value[name], emit)

        def decode(data: bytes, pos: int) -> typing.Tuple[dict, int]:
            record: typing.Dict[str, typing.Any] = {}
            for name, decode_field in decoders:
                record[name], pos = decode_field(data, pos)
            return record, pos

        ops: Ops = (1, len(fields), 1)  # routine, dispatches, marshal state block
        for f in fields:
            ops = _add(ops, f.ops)
        counters = []
        for name, f in zip(names, fields):
            if f.count_ops is not None:
                counters.append((name, f.count_ops))

        def count_ops(value: typing.Any) -> Ops:
            total = (0, 0, 0)
            for name, count_field in counters:
                total = _add(total, count_field(value[name]))
            return total

        return _Routines(encode, decode, ops, count_ops if counters else None)

    def _optional(self, inner: _Routines) -> _Routines:
        unpack_from, size = self._word.unpack_from, self._word.size
        absent, present = self._word.pack(0), self._word.pack(1)
        encode_inner, decode_inner = inner.encode, inner.decode

        def encode(value: typing.Any, emit: _Emit) -> None:
            if value is None:
                emit(absent)
            else:
                emit(present)
                encode_inner(value, emit)

        def decode(data: bytes, pos: int) -> typing.Tuple[typing.Any, int]:
            if unpack_from(data, pos)[0] == 0:
                return None, pos + size
            return decode_inner(data, pos + size)

        when_present = _add(inner.ops, (0, 1, 0))
        count_inner = inner.count_ops

        def count_ops(value: typing.Any) -> Ops:
            if value is None:
                return (0, 0, 0)
            if count_inner is None:
                return when_present
            return _add(when_present, count_inner(value))

        return _Routines(encode, decode, (1, 0, 0), count_ops)
