"""BIND protocol messages and their IDL descriptions.

Messages travel through the simulated transports as Python objects; the
IDL descriptions here let clients and servers produce *real wire bytes*
for them, so message sizes (and therefore wire and marshalling costs)
are grounded rather than guessed.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.bind.names import DomainName
from repro.bind.rr import ResourceRecord, RRType
from repro.bind.zone import ZoneDelta
from repro.serial import (
    ArrayType,
    OpaqueType,
    StringType,
    StructType,
    U32Type,
)

# Status codes (DNS RCODE subset).
STATUS_OK = 0
STATUS_SERVFAIL = 2
STATUS_NXDOMAIN = 3
STATUS_REFUSED = 5

# ----------------------------------------------------------------------
# IDL descriptions (shared by conventional and HRPC-generated clients)
# ----------------------------------------------------------------------
RR_IDL = StructType(
    "ResourceRecord",
    [
        ("name", StringType(255)),
        ("rtype", U32Type()),
        ("rclass", U32Type()),
        ("ttl", U32Type()),
        ("data", OpaqueType(256)),
    ],
)

QUERY_REQUEST_IDL = StructType(
    "QueryRequest",
    [("name", StringType(255)), ("rtype", U32Type())],
)

QUERY_RESPONSE_IDL = StructType(
    "QueryResponse",
    [("status", U32Type()), ("records", ArrayType(RR_IDL, 64))],
)

BATCH_QUESTION_IDL = StructType(
    "BatchQuestion",
    [
        ("name", StringType(255)),
        ("rtype", U32Type()),
        # 0 = literal name; i+1 = substitute a label from answer i
        ("chain", U32Type()),
        ("field", StringType(64)),
    ],
)

BATCH_QUERY_REQUEST_IDL = StructType(
    "BatchQueryRequest",
    [("questions", ArrayType(BATCH_QUESTION_IDL, 16))],
)

BATCH_QUERY_RESPONSE_IDL = StructType(
    "BatchQueryResponse",
    [("answers", ArrayType(QUERY_RESPONSE_IDL, 16))],
)

UPDATE_REQUEST_IDL = StructType(
    "UpdateRequest",
    [
        ("mode", U32Type()),
        ("name", StringType(255)),
        ("rtype", U32Type()),
        ("records", ArrayType(RR_IDL, 64)),
    ],
)

UPDATE_RESPONSE_IDL = StructType(
    "UpdateResponse",
    [("status", U32Type()), ("serial", U32Type())],
)

UPDATE_OP_IDL = StructType(
    "UpdateOp",
    [
        ("mode", U32Type()),
        ("name", StringType(255)),
        ("rtype", U32Type()),
        # lease duration in ms granted with this operation (0 = none)
        ("lease", U32Type()),
        ("records", ArrayType(RR_IDL, 64)),
    ],
)

UPDATE_BATCH_REQUEST_IDL = StructType(
    "UpdateBatchRequest",
    [("ops", ArrayType(UPDATE_OP_IDL, 64))],
)

UPDATE_BATCH_RESPONSE_IDL = StructType(
    "UpdateBatchResponse",
    [
        ("status", U32Type()),
        ("serial", U32Type()),
        ("statuses", ArrayType(U32Type(), 64)),
    ],
)

NOTIFY_REQUEST_IDL = StructType(
    "NotifyRequest",
    [("origin", StringType(255)), ("serial", U32Type())],
)

NOTIFY_RESPONSE_IDL = StructType("NotifyResponse", [("status", U32Type())])

NOTIFY_SUBSCRIBE_REQUEST_IDL = StructType(
    "NotifySubscribeRequest",
    [
        ("origin", StringType(255)),
        ("address", StringType(64)),
        ("port", U32Type()),
    ],
)

NOTIFY_SUBSCRIBE_RESPONSE_IDL = StructType(
    "NotifySubscribeResponse",
    [("status", U32Type()), ("serial", U32Type())],
)

XFER_REQUEST_IDL = StructType("XferRequest", [("origin", StringType(255))])

SERIAL_REQUEST_IDL = StructType("SerialRequest", [("origin", StringType(255))])

SERIAL_RESPONSE_IDL = StructType(
    "SerialResponse", [("status", U32Type()), ("serial", U32Type())]
)

XFER_RESPONSE_IDL = StructType(
    "XferResponse",
    [
        ("status", U32Type()),
        ("serial", U32Type()),
        ("records", ArrayType(RR_IDL, 4096)),
    ],
)

IXFR_REQUEST_IDL = StructType(
    "IxfrRequest",
    [("origin", StringType(255)), ("serial", U32Type())],
)

IXFR_DELTA_IDL = StructType(
    "IxfrDelta",
    [
        ("serial", U32Type()),
        ("name", StringType(255)),
        ("rtype", U32Type()),
        ("records", ArrayType(RR_IDL, 64)),
    ],
)

IXFR_RESPONSE_IDL = StructType(
    "IxfrResponse",
    [
        ("status", U32Type()),
        ("serial", U32Type()),
        # 1 = the journal could not cover the delta; ``records`` holds a
        # full AXFR-style snapshot and ``deltas`` is empty
        ("full", U32Type()),
        ("deltas", ArrayType(IXFR_DELTA_IDL, 1024)),
        ("records", ArrayType(RR_IDL, 4096)),
    ],
)


def rr_to_idl(record: ResourceRecord) -> dict:
    """Resource record -> IDL dict value."""
    return {
        "name": str(record.name),
        "rtype": record.rtype.value,
        "rclass": 1,
        "ttl": int(record.ttl),
        "data": record.data,
    }


def rr_from_idl(value: typing.Mapping[str, object]) -> ResourceRecord:
    """IDL dict value -> resource record."""
    return ResourceRecord(
        name=DomainName(typing.cast(str, value["name"])),
        rtype=RRType(value["rtype"]),
        ttl=float(typing.cast(int, value["ttl"])),
        data=typing.cast(bytes, value["data"]),
    )


# ----------------------------------------------------------------------
# Message dataclasses
# ----------------------------------------------------------------------
class Message:
    """What every BIND protocol message has besides its fields."""

    idl_type: typing.ClassVar[StructType]
    #: The bytes a server marshalled this message to when it sent it.
    #: They ride with the message, so a receiver prices its demarshal
    #: against them and never re-encodes what it received.
    wire: typing.Optional[bytes] = None


@dataclasses.dataclass
class QueryRequest(Message):
    """A lookup for (name, record type)."""
    name: DomainName
    rtype: RRType

    def to_idl(self) -> dict:
        return {"name": str(self.name), "rtype": self.rtype.value}

    idl_type = QUERY_REQUEST_IDL


@dataclasses.dataclass
class QueryResponse(Message):
    """Status plus the matching resource records."""
    status: int
    records: typing.List[ResourceRecord]

    def to_idl(self) -> dict:
        return {
            "status": self.status,
            "records": [rr_to_idl(r) for r in self.records],
        }

    @classmethod
    def from_idl(cls, value: typing.Mapping[str, object]) -> "QueryResponse":
        return cls(
            status=typing.cast(int, value["status"]),
            records=[rr_from_idl(v) for v in typing.cast(list, value["records"])],
        )

    idl_type = QUERY_RESPONSE_IDL


@dataclasses.dataclass(frozen=True)
class BatchQuestion:
    """One question of a multi-question (batched) query.

    ``chain_from >= 0`` makes this a *chained* question: the server
    resolves it only after answer ``chain_from`` of the same batch, and
    substitutes the value of ``chain_field`` (a ``key=value;...`` field
    of that answer's first record) for the single ``*`` label in
    ``name``.  Chaining is what lets a dependent mapping sequence —
    context -> name service -> NSM — collapse into one round trip.
    """

    name: str
    rtype: RRType
    chain_from: int = -1
    chain_field: str = ""

    def to_idl(self) -> dict:
        return {
            "name": self.name,
            "rtype": self.rtype.value,
            "chain": self.chain_from + 1,
            "field": self.chain_field,
        }

    @classmethod
    def from_idl(cls, value: typing.Mapping[str, object]) -> "BatchQuestion":
        return cls(
            name=typing.cast(str, value["name"]),
            rtype=RRType(value["rtype"]),
            chain_from=typing.cast(int, value["chain"]) - 1,
            chain_field=typing.cast(str, value["field"]),
        )

    idl_type = BATCH_QUESTION_IDL


@dataclasses.dataclass
class BatchQueryRequest(Message):
    """Several (possibly chained) questions in one datagram."""

    questions: typing.List[BatchQuestion]

    def to_idl(self) -> dict:
        return {"questions": [q.to_idl() for q in self.questions]}

    @classmethod
    def from_idl(cls, value: typing.Mapping[str, object]) -> "BatchQueryRequest":
        return cls(
            questions=[
                BatchQuestion.from_idl(v)
                for v in typing.cast(list, value["questions"])
            ]
        )

    idl_type = BATCH_QUERY_REQUEST_IDL


@dataclasses.dataclass
class BatchQueryResponse(Message):
    """One :class:`QueryResponse` per question, in question order."""

    answers: typing.List[QueryResponse]

    def to_idl(self) -> dict:
        return {"answers": [a.to_idl() for a in self.answers]}

    @classmethod
    def from_idl(cls, value: typing.Mapping[str, object]) -> "BatchQueryResponse":
        return cls(
            answers=[
                QueryResponse.from_idl(v)
                for v in typing.cast(list, value["answers"])
            ]
        )

    idl_type = BATCH_QUERY_RESPONSE_IDL


def meta_field(data: bytes, field: str) -> typing.Optional[str]:
    """Pull one ``key=value;...`` field out of UNSPEC record data.

    The server-side half of question chaining: meta-zone records carry
    their payload in this form (see :mod:`repro.core.metastore`), and a
    chained question names the field whose value feeds its ``*`` label.
    Returns None when the data is not in that form or lacks the field.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    for part in text.split(";"):
        key, sep, value = part.partition("=")
        if sep and key == field:
            return value
    return None


def substitute_label(template: str, value: str) -> str:
    """Replace the first ``*`` label of ``template`` with ``value``.

    The value is sanitised to a single label the same way registration
    sanitises host names (non-alphanumerics become ``-``), so a chained
    question finds the owner the registrar wrote.
    """
    label = "".join(c if c.isalnum() else "-" for c in value.lower())
    labels = template.split(".")
    for i, piece in enumerate(labels):
        if piece == "*":
            labels[i] = label
            break
    return ".".join(labels)


class UpdateMode:
    """Dynamic-update operations (add / delete / replace)."""
    ADD = 1
    DELETE = 2
    REPLACE = 3


@dataclasses.dataclass
class UpdateRequest(Message):
    """A dynamic update (requires the modified BIND)."""
    mode: int
    name: DomainName
    rtype: RRType
    records: typing.List[ResourceRecord]

    def to_idl(self) -> dict:
        return {
            "mode": self.mode,
            "name": str(self.name),
            "rtype": self.rtype.value,
            "records": [rr_to_idl(r) for r in self.records],
        }

    idl_type = UPDATE_REQUEST_IDL


@dataclasses.dataclass
class UpdateResponse(Message):
    """Update outcome plus the zone's new serial."""
    status: int
    serial: int

    def to_idl(self) -> dict:
        return {"status": self.status, "serial": self.serial}

    idl_type = UPDATE_RESPONSE_IDL


@dataclasses.dataclass(frozen=True)
class UpdateOp:
    """One operation of a batched dynamic update.

    ``lease_ms > 0`` asks the primary to grant a lease: the binding is
    retracted automatically unless re-asserted before the lease runs
    out, and answers for it advertise a TTL capped to the remainder.
    """

    mode: int
    name: DomainName
    rtype: RRType
    records: typing.Tuple[ResourceRecord, ...] = ()
    lease_ms: float = 0.0

    def to_idl(self) -> dict:
        return {
            "mode": self.mode,
            "name": str(self.name),
            "rtype": self.rtype.value,
            "lease": int(self.lease_ms),
            "records": [rr_to_idl(r) for r in self.records],
        }

    @classmethod
    def from_idl(cls, value: typing.Mapping[str, object]) -> "UpdateOp":
        return cls(
            mode=typing.cast(int, value["mode"]),
            name=DomainName(typing.cast(str, value["name"])),
            rtype=RRType(value["rtype"]),
            records=tuple(
                rr_from_idl(v) for v in typing.cast(list, value["records"])
            ),
            lease_ms=float(typing.cast(int, value["lease"])),
        )

    idl_type = UPDATE_OP_IDL


@dataclasses.dataclass
class UpdateBatchRequest(Message):
    """Several coalesced update operations in one datagram."""

    ops: typing.List[UpdateOp]

    def to_idl(self) -> dict:
        return {"ops": [op.to_idl() for op in self.ops]}

    @classmethod
    def from_idl(cls, value: typing.Mapping[str, object]) -> "UpdateBatchRequest":
        return cls(
            ops=[UpdateOp.from_idl(v) for v in typing.cast(list, value["ops"])]
        )

    idl_type = UPDATE_BATCH_REQUEST_IDL


@dataclasses.dataclass
class UpdateBatchResponse(Message):
    """Batch outcome: overall status, final serial, per-op statuses."""

    status: int
    serial: int
    statuses: typing.List[int]

    def to_idl(self) -> dict:
        return {
            "status": self.status,
            "serial": self.serial,
            "statuses": list(self.statuses),
        }

    idl_type = UPDATE_BATCH_RESPONSE_IDL


@dataclasses.dataclass
class NotifyRequest(Message):
    """Primary -> subscriber push: ``origin`` moved to ``serial``.

    One-way; the subscriber pulls the delta through IXFR at its own
    pace rather than trusting pushed payloads.
    """

    origin: DomainName
    serial: int

    def to_idl(self) -> dict:
        return {"origin": str(self.origin), "serial": self.serial}

    idl_type = NOTIFY_REQUEST_IDL


@dataclasses.dataclass
class NotifyResponse(Message):
    """Acknowledgement of a NOTIFY push (rarely waited on)."""

    status: int

    def to_idl(self) -> dict:
        return {"status": self.status}

    idl_type = NOTIFY_RESPONSE_IDL


@dataclasses.dataclass
class NotifySubscribeRequest(Message):
    """Ask the primary to push serial bumps for ``origin`` to us."""

    origin: DomainName
    address: str
    port: int

    def to_idl(self) -> dict:
        return {
            "origin": str(self.origin),
            "address": self.address,
            "port": self.port,
        }

    idl_type = NOTIFY_SUBSCRIBE_REQUEST_IDL


@dataclasses.dataclass
class NotifySubscribeResponse(Message):
    """Subscription outcome plus the zone's current serial.

    The serial seeds the subscriber's IXFR baseline, so the first push
    pulls exactly the changes since subscription time.
    """

    status: int
    serial: int

    def to_idl(self) -> dict:
        return {"status": self.status, "serial": self.serial}

    idl_type = NOTIFY_SUBSCRIBE_RESPONSE_IDL


@dataclasses.dataclass
class XferRequest(Message):
    """AXFR: ask for the whole zone."""
    origin: DomainName

    def to_idl(self) -> dict:
        return {"origin": str(self.origin)}

    idl_type = XFER_REQUEST_IDL


@dataclasses.dataclass
class SerialRequest(Message):
    """SOA-style probe: what is the zone's current serial?

    Secondaries use this to skip the full transfer when nothing changed.
    """

    origin: DomainName

    def to_idl(self) -> dict:
        return {"origin": str(self.origin)}

    idl_type = SERIAL_REQUEST_IDL


@dataclasses.dataclass
class SerialResponse(Message):
    """The zone's current SOA serial."""
    status: int
    serial: int

    def to_idl(self) -> dict:
        return {"status": self.status, "serial": self.serial}

    idl_type = SERIAL_RESPONSE_IDL


@dataclasses.dataclass
class XferResponse(Message):
    """AXFR answer: serial plus every record of the zone."""
    status: int
    serial: int
    records: typing.List[ResourceRecord]

    def to_idl(self) -> dict:
        return {
            "status": self.status,
            "serial": self.serial,
            "records": [rr_to_idl(r) for r in self.records],
        }

    idl_type = XFER_RESPONSE_IDL


def delta_to_idl(delta: ZoneDelta) -> dict:
    """Journal entry -> IDL dict value."""
    return {
        "serial": delta.serial,
        "name": str(delta.name),
        "rtype": delta.rtype.value,
        "records": [rr_to_idl(r) for r in delta.records],
    }


def delta_from_idl(value: typing.Mapping[str, object]) -> ZoneDelta:
    """IDL dict value -> journal entry."""
    return ZoneDelta(
        serial=typing.cast(int, value["serial"]),
        name=DomainName(typing.cast(str, value["name"])),
        rtype=RRType(value["rtype"]),
        records=tuple(
            rr_from_idl(v) for v in typing.cast(list, value["records"])
        ),
    )


@dataclasses.dataclass
class IxfrRequest(Message):
    """IXFR: ask for the dynamic updates past ``serial``."""

    origin: DomainName
    serial: int

    def to_idl(self) -> dict:
        return {"origin": str(self.origin), "serial": self.serial}

    idl_type = IXFR_REQUEST_IDL


@dataclasses.dataclass
class IxfrResponse(Message):
    """IXFR answer: either the journal delta past the requested serial
    (``full == 0``, entries in ``deltas``) or — when the journal was
    truncated — a full AXFR-style snapshot (``full == 1``, records in
    ``records``)."""

    status: int
    serial: int
    full: int
    deltas: typing.List[ZoneDelta]
    records: typing.List[ResourceRecord]

    def to_idl(self) -> dict:
        return {
            "status": self.status,
            "serial": self.serial,
            "full": self.full,
            "deltas": [delta_to_idl(d) for d in self.deltas],
            "records": [rr_to_idl(r) for r in self.records],
        }

    @classmethod
    def from_idl(cls, value: typing.Mapping[str, object]) -> "IxfrResponse":
        return cls(
            status=typing.cast(int, value["status"]),
            serial=typing.cast(int, value["serial"]),
            full=typing.cast(int, value["full"]),
            deltas=[
                delta_from_idl(v) for v in typing.cast(list, value["deltas"])
            ],
            records=[
                rr_from_idl(v) for v in typing.cast(list, value["records"])
            ],
        )

    idl_type = IXFR_RESPONSE_IDL
