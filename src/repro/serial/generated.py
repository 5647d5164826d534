"""Generated marshallers and their cost accounting.

The paper's HRPC interface to BIND used marshalling code generated by a
stub compiler, and found it "incur[s] a good deal of overhead in
procedure calls, indirect calls to marshalling routines, unnecessary
dynamic memory allocation, and unnecessary levels of marshalling".

:class:`GeneratedMarshaller` runs the codec compiled by
:class:`~repro.serial.compiler.StubCompiler` — the *same bytes* as the
hand-coded path — and charges for every routine's procedure call, its
indirect dispatch, and any temporary allocation, giving a
:class:`MarshalCost` whose simulated time reproduces the
generated-routine column of Table 3.2.

Both styles share :class:`Marshaller`: a codec, a price, and the
answers to wire values already marshalled, which the simulation still
charges every time but the host computes once.
"""

from __future__ import annotations

import dataclasses
import marshal
import typing

from repro.memo import memoised
from repro.serial.idl import IdlType
from repro.serial.message import WireMessage

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.serial.compiler import Codec


# Per-operation simulated CPU costs (ms) of the generated routines, fit
# so that demarshalling a BIND lookup response through the generated
# path costs 10.28 ms for 1 resource record and 24.95 ms for 6 — the
# marshalled-cache-hit minus demarshalled-cache-hit deltas of Table 3.2.
# See ``repro.harness.calibration``.
#: entering the generated marshalling code at all
ENTRY_OVERHEAD_MS = 5.918
#: one routine's procedure call
PER_PROC_CALL_MS = 0.25
#: a parent's indirect call to a child routine
PER_INDIRECT_CALL_MS = 0.139
#: one dynamic allocation
PER_ALLOCATION_MS = 0.20
#: one byte processed
PER_BYTE_MS = 0.0


@dataclasses.dataclass
class MarshalCost:
    """Operation counts of one pass through the generated routines."""

    proc_calls: int = 0
    indirect_calls: int = 0
    allocations: int = 0
    bytes_processed: int = 0

    def time_ms(self) -> float:
        """Simulated CPU time implied by the counts."""
        return (
            ENTRY_OVERHEAD_MS
            + PER_PROC_CALL_MS * self.proc_calls
            + PER_INDIRECT_CALL_MS * self.indirect_calls
            + PER_ALLOCATION_MS * self.allocations
            + PER_BYTE_MS * self.bytes_processed
        )


@memoised
def _encoded(marshaller: "Marshaller", key: tuple) -> typing.List[typing.Tuple[bytes, float]]:
    """The slot for ``marshaller``'s answer to the message whose wire key
    is ``key``: empty until an encode of it succeeds, so one that raises
    leaves nothing to find.  Callers get the answer, never the slot."""
    return []


@memoised
def _decoded(marshaller: "Marshaller", data: bytes) -> typing.Tuple[bytes, float]:
    """``marshaller``'s answer to ``data``, its value kept as a
    :mod:`marshal` string so every caller loads a copy of its own."""
    value, cost = marshaller._decode(data)
    return marshal.dumps(value), cost


class Marshaller:
    """One compiled codec, priced by style (:meth:`_price`).

    ``encode`` and ``decode`` are the entry points every marshal goes
    through.  An answer is a pure function of the marshaller (its codec
    and prices, fixed when it is built) and the wire value, so it is
    computed once per :func:`~repro.memo.memoised` key and then
    recalled, bit for bit: an encode is keyed on a message's
    :meth:`~repro.serial.message.WireMessage.wire_key`, a decode on the
    bytes.  The simulation is charged the recalled cost every time;
    only the host skips the work.  A raw IDL value, a message with no
    key, or data that is not ``bytes`` is marshalled afresh; an
    :class:`Encoded` value keeps its own answer, its sender's to hold.
    """

    style: str
    codec: "Codec"

    @property
    def idl_type(self) -> IdlType:
        return self.codec.idl_type

    def _price(self, value: object, nbytes: int) -> float:
        """Simulated cost (ms) of one pass over ``value``'s ``nbytes``."""
        raise NotImplementedError

    def encode(self, value: object) -> typing.Tuple[bytes, float]:
        """Marshal ``value`` — an IDL value, a message standing for its
        ``to_idl()``, or an :class:`Encoded` one; returns (wire bytes,
        simulated cost ms)."""
        if not isinstance(value, WireMessage):
            if type(value) is not Encoded:
                return self._encode(value)
            if value.by is not self:
                value.by, value.answer = self, self._encode(value.value)
            return value.answer
        # another class's key could equal ours, under other field names
        key = value.wire_key() if value.idl_type is self.codec.idl_type else None
        if key is None:
            return self._encode(value.to_idl())
        answer = _encoded(self, key)
        if not answer:
            answer.append(self._encode(value.to_idl()))
        return answer[0]

    def _encode(self, value: object) -> typing.Tuple[bytes, float]:
        data = self.codec.encode(value)
        return data, self._price(value, len(data))

    def decode(self, data: bytes, value: bool = True) -> typing.Tuple[typing.Any, float]:
        """Demarshal ``data``; returns (value, simulated cost ms).

        A caller that wants only the price passes ``value=False``: a
        recalled answer is then not copied, and its value comes back
        ``None``.
        """
        if type(data) is not bytes:
            return self._decode(data)
        kept, cost = _decoded(self, data)
        return (marshal.loads(kept) if value else None), cost

    def _decode(self, data: bytes) -> typing.Tuple[typing.Any, float]:
        value = self.codec.decode(data)
        return value, self._price(value, len(data))


class Encoded:
    """A raw IDL value its sender marshals once and sends again.

    The first :meth:`Marshaller.encode` of it runs the codec; every later
    one by the same marshaller hands back that answer — the same bytes
    and cost, by identity — so each send still enters ``encode`` and is
    still charged, and the host marshals the value once.  The sender
    keeps the holder only while ``value`` cannot change.
    """

    __slots__ = ("value", "by", "answer")

    def __init__(self, value: object):
        self.value = value
        #: the marshaller ``answer`` came from, none before the first encode
        self.by: typing.Optional[Marshaller] = None
        self.answer: typing.Tuple[bytes, float] = (b"", 0.0)


class GeneratedMarshaller(Marshaller):
    """Marshaller priced as stub-compiled code.

    Parameters
    ----------
    codec:
        The compiled codec for one IDL type (from :class:`StubCompiler`).
    """

    style = "generated"

    def __init__(self, codec: "Codec"):
        self.codec = codec

    def _counts(self, value: object, nbytes: int) -> MarshalCost:
        return MarshalCost(*self.codec.count_ops(value), nbytes)

    def _price(self, value: object, nbytes: int) -> float:
        return self._counts(value, nbytes).time_ms()

    def measure_decode(self, data: bytes) -> MarshalCost:
        """Just the operation counts for decoding ``data`` (for tests)."""
        return self._counts(self.codec.decode(data), len(data))
