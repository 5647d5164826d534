"""Resource records.

"BIND data is stored as a collection of resource records, each of which
can be up to 256 bytes of data.  Separate resource records are intended
to store alternate data for one name, e.g., multiple network addresses
for gateway hosts."  The HNS modification adds ``UNSPEC``, data of
unspecified type.
"""

from __future__ import annotations

import dataclasses
import enum
import operator
import typing
from typing import Annotated, ClassVar

from repro.bind.names import DomainName
from repro.serial import CONVERTERS, OpaqueType, StringType, U32Type, Wire, WireMessage

MAX_RDATA = 256


class RRType(enum.Enum):
    """Resource record types used in this reproduction."""

    A = 1        # host address
    CNAME = 5    # canonical name
    SOA = 6      # start of authority
    HINFO = 13   # host info (system type)
    TXT = 16     # free text
    UNSPEC = 103 # HNS modification: data of unspecified type

    # Members are singletons: hash by identity in C, not Enum's
    # ``hash(self._name_)`` frame on every memoised cache-key call.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.name


# On the wire a record type is its number (``_value_``: ``.value`` is a
# property, two Python frames per field converted).
CONVERTERS[RRType] = (U32Type, operator.attrgetter("_value_"), RRType)


@dataclasses.dataclass(frozen=True)
class ResourceRecord(WireMessage):
    """One (name, type, ttl, data) record.

    ``data`` is uninterpreted bytes (≤ 256), as in BIND; higher layers
    encode addresses or HNS meta-records into it.  ``ttl`` is in
    simulated milliseconds (the paper's caches key invalidation off this
    field).
    """

    name: Annotated[DomainName, StringType(255)]
    rtype: Annotated[RRType, U32Type()]
    #: DNS record class; always IN (1), so only the wire form carries it
    rclass: ClassVar[Annotated[int, Wire(U32Type(), derive=lambda record: 1)]]
    ttl: Annotated[float, U32Type()]
    data: Annotated[bytes, OpaqueType(MAX_RDATA)]

    def __post_init__(self) -> None:
        if not isinstance(self.name, DomainName):
            object.__setattr__(self, "name", DomainName(self.name))
        if not isinstance(self.rtype, RRType):
            raise TypeError(f"rtype must be RRType, got {self.rtype!r}")
        if self.ttl < 0:
            raise ValueError(f"negative TTL: {self.ttl}")
        if not isinstance(self.data, bytes):
            raise TypeError("data must be bytes")
        if len(self.data) > MAX_RDATA:
            raise ValueError(
                f"rdata of {len(self.data)} bytes exceeds BIND's {MAX_RDATA}-byte limit"
            )

    @classmethod
    def a_record(
        cls, name: typing.Union[str, DomainName], address: str, ttl: float = 3_600_000
    ) -> "ResourceRecord":
        """Convenience constructor for host-address records."""
        octets = bytes(int(p) for p in address.split("."))
        if len(octets) != 4:
            raise ValueError(f"bad dotted quad {address!r}")
        return cls(DomainName(name), RRType.A, ttl, octets)

    @classmethod
    def text_record(
        cls,
        name: typing.Union[str, DomainName],
        text: str,
        rtype: RRType = RRType.TXT,
        ttl: float = 3_600_000,
    ) -> "ResourceRecord":
        """Convenience constructor for text/unspec records."""
        return cls(DomainName(name), rtype, ttl, text.encode("utf-8"))

    @property
    def address(self) -> str:
        """Decode an A record's data as a dotted quad."""
        if self.rtype is not RRType.A or len(self.data) != 4:
            raise ValueError(f"not an address record: {self}")
        return ".".join(str(b) for b in self.data)

    @property
    def text(self) -> str:
        """Decode the data as UTF-8 text."""
        return self.data.decode("utf-8")

    def wire_size(self) -> int:
        """Approximate encoded size (name + fixed header + data)."""
        return len(str(self.name)) + 10 + len(self.data)

    def __str__(self) -> str:
        return f"{self.name} {self.rtype} ttl={self.ttl:g} [{len(self.data)}B]"
