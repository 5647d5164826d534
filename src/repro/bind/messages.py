"""BIND protocol messages.

Messages travel through the simulated transports as Python objects; each
class below is also its own IDL description (:mod:`repro.serial.message`
derives ``idl_type``, ``to_idl`` and ``from_idl`` from the annotated
fields), which lets clients and servers produce *real wire bytes* for
them, so message sizes (and therefore wire and marshalling costs) are
grounded rather than guessed.
"""

from __future__ import annotations

import dataclasses
import typing
from typing import Annotated

from repro.bind.names import DomainName
from repro.bind.rr import ResourceRecord, RRType
from repro.bind.zone import ZoneDelta
from repro.serial.idl import ArrayType, StringType, U32Type
from repro.serial.message import Wire, WireMessage

# Status codes (DNS RCODE subset).
STATUS_OK = 0
STATUS_SERVFAIL = 2
STATUS_NXDOMAIN = 3
STATUS_REFUSED = 5

RR_IDL = ResourceRecord.idl_type


@dataclasses.dataclass
class QueryRequest(WireMessage):
    """A lookup for (name, record type)."""

    name: Annotated[DomainName, StringType(255)]
    rtype: Annotated[RRType, U32Type()]


@dataclasses.dataclass
class QueryResponse(WireMessage):
    """Status plus the matching resource records."""

    status: Annotated[int, U32Type()]
    records: Annotated[typing.List[ResourceRecord], ArrayType(RR_IDL, 64)]


#: the ledger's serial probe and the Table 3.2 bench import it by name
QUERY_RESPONSE_IDL = QueryResponse.idl_type


@dataclasses.dataclass(frozen=True)
class BatchQuestion(WireMessage):
    """One question of a multi-question (batched) query.

    ``chain_from >= 0`` makes this a *chained* question: the server
    resolves it only after answer ``chain_from`` of the same batch, and
    substitutes the value of ``chain_field`` (a ``key=value;...`` field
    of that answer's first record) for the single ``*`` label in
    ``name``.  Chaining is what lets a dependent mapping sequence —
    context -> name service -> NSM — collapse into one round trip.
    """

    name: Annotated[str, StringType(255)]
    rtype: Annotated[RRType, U32Type()]
    # wire: 0 = literal name; i+1 = substitute a label from answer i
    chain_from: Annotated[
        int,
        Wire(U32Type(), "chain", to_wire=lambda i: i + 1, from_wire=lambda n: n - 1),
    ] = -1
    chain_field: Annotated[str, Wire(StringType(64), "field")] = ""


@dataclasses.dataclass
class BatchQueryRequest(WireMessage):
    """Several (possibly chained) questions in one datagram."""

    questions: Annotated[
        typing.List[BatchQuestion], ArrayType(BatchQuestion.idl_type, 16)
    ]


@dataclasses.dataclass
class BatchQueryResponse(WireMessage):
    """One :class:`QueryResponse` per question, in question order."""

    answers: Annotated[
        typing.List[QueryResponse], ArrayType(QueryResponse.idl_type, 16)
    ]


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
class UpdateRequest(WireMessage):
    """A dynamic update (requires the modified BIND)."""

    mode: Annotated[int, U32Type()]
    name: Annotated[DomainName, StringType(255)]
    rtype: Annotated[RRType, U32Type()]
    records: Annotated[typing.List[ResourceRecord], ArrayType(RR_IDL, 64)]


@dataclasses.dataclass
class UpdateResponse(WireMessage):
    """Update outcome plus the zone's new serial."""

    status: Annotated[int, U32Type()]
    serial: Annotated[int, U32Type()]


@dataclasses.dataclass(frozen=True)
class UpdateOp(WireMessage):
    """One operation of a batched dynamic update.

    ``lease_ms > 0`` asks the primary to grant a lease: the binding is
    retracted automatically unless re-asserted before the lease runs
    out, and answers for it advertise a TTL capped to the remainder.
    """

    mode: Annotated[int, U32Type()]
    name: Annotated[DomainName, StringType(255)]
    rtype: Annotated[RRType, U32Type()]
    # lease duration granted with this operation (0 = none)
    lease_ms: Annotated[float, Wire(U32Type(), "lease")] = 0.0
    records: Annotated[
        typing.Tuple[ResourceRecord, ...], ArrayType(RR_IDL, 64)
    ] = ()


@dataclasses.dataclass
class UpdateBatchRequest(WireMessage):
    """Several coalesced update operations in one datagram."""

    ops: Annotated[typing.List[UpdateOp], ArrayType(UpdateOp.idl_type, 64)]


@dataclasses.dataclass
class UpdateBatchResponse(WireMessage):
    """Batch outcome: overall status, final serial, per-op statuses."""

    status: Annotated[int, U32Type()]
    serial: Annotated[int, U32Type()]
    statuses: Annotated[typing.List[int], ArrayType(U32Type(), 64)]


@dataclasses.dataclass
class NotifyRequest(WireMessage):
    """Primary -> subscriber push: ``origin`` moved to ``serial``.

    One-way; the subscriber pulls the delta through IXFR at its own
    pace rather than trusting pushed payloads.
    """

    origin: Annotated[DomainName, StringType(255)]
    serial: Annotated[int, U32Type()]


@dataclasses.dataclass
class NotifySubscribeRequest(WireMessage):
    """Ask the primary to push serial bumps for ``origin`` to us."""

    origin: Annotated[DomainName, StringType(255)]
    address: Annotated[str, StringType(64)]
    port: Annotated[int, U32Type()]


@dataclasses.dataclass
class NotifySubscribeResponse(WireMessage):
    """Subscription outcome plus the zone's current serial.

    The serial seeds the subscriber's IXFR baseline, so the first push
    pulls exactly the changes since subscription time.
    """

    status: Annotated[int, U32Type()]
    serial: Annotated[int, U32Type()]


@dataclasses.dataclass
class XferRequest(WireMessage):
    """AXFR: ask for the whole zone."""

    origin: Annotated[DomainName, StringType(255)]


@dataclasses.dataclass
class XferResponse(WireMessage):
    """AXFR answer: serial plus every record of the zone."""

    status: Annotated[int, U32Type()]
    serial: Annotated[int, U32Type()]
    records: Annotated[typing.List[ResourceRecord], ArrayType(RR_IDL, 4096)]


@dataclasses.dataclass
class IxfrRequest(WireMessage):
    """IXFR: ask for the dynamic updates past ``serial``."""

    origin: Annotated[DomainName, StringType(255)]
    serial: Annotated[int, U32Type()]


@dataclasses.dataclass
class IxfrResponse(WireMessage):
    """IXFR answer: either the journal delta past the requested serial
    (``full == 0``, entries in ``deltas``) or — when the journal was
    truncated — a full AXFR-style snapshot (``full == 1``, records in
    ``records``)."""

    status: Annotated[int, U32Type()]
    serial: Annotated[int, U32Type()]
    full: Annotated[int, U32Type()]
    deltas: Annotated[typing.List[ZoneDelta], ArrayType(ZoneDelta.idl_type, 1024)]
    records: Annotated[typing.List[ResourceRecord], ArrayType(RR_IDL, 4096)]
