"""Hand-coded marshallers: the cheap path.

These model the "standard BIND library routines (which include the code
to marshal, send/receive, and interpret BIND client-server messages)":
a single tight pass over the buffer with no temporary allocation.  The
simulated cost is a small constant plus a per-byte term, fit so a BIND
lookup response costs 0.65 ms with one resource record and 2.6 ms with
six (the figures the paper quotes for the standard routines).
"""

from __future__ import annotations

import typing

from repro.serial.compiler import Representation, StubCompiler
from repro.serial.generated import Marshaller
from repro.serial.idl import IdlType

#: Fixed cost of one hand-coded marshal/demarshal pass (ms).
HANDCODED_BASE_MS = 0.195
#: Per-byte cost of the single pass (ms/byte).
HANDCODED_PER_BYTE_MS = 0.008125


class HandcodedMarshaller(Marshaller):
    """Direct, single-pass marshalling for one IDL type."""

    style = "handcoded"

    def __init__(
        self,
        idl_type: IdlType,
        representation: typing.Optional[Representation] = None,
    ):
        self.codec = StubCompiler(representation).compile(idl_type)

    def _price(self, value: object, nbytes: int) -> float:
        return HANDCODED_BASE_MS + HANDCODED_PER_BYTE_MS * nbytes
