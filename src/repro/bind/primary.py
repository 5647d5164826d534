"""The primary-only RPCs: dynamic update, NOTIFY subscription, AXFR, IXFR.

Reads fail over across the replica set and go through the resolver's
cache (:class:`~repro.bind.resolver.BindResolver`).  These calls do
neither: only the primary accepts writes and owns the journal, so each
is one request to one server.
"""

from __future__ import annotations

import typing

from repro.bind.errors import BindError, NameNotFound, UpdateRefused, ZoneNotFound
from repro.bind.messages import (
    STATUS_NXDOMAIN,
    STATUS_OK,
    STATUS_REFUSED,
    IxfrRequest,
    IxfrResponse,
    NotifySubscribeRequest,
    NotifySubscribeResponse,
    UpdateBatchRequest,
    UpdateBatchResponse,
    UpdateOp,
    UpdateRequest,
    UpdateResponse,
    XferRequest,
    XferResponse,
)
from repro.bind.names import DomainName
from repro.bind.rr import ResourceRecord, RRType
from repro.net.addresses import Endpoint
from repro.net.host import Host
from repro.net.transport import Transport
from repro.serial import HandcodedMarshaller

#: zone transfers move whole zones; give them longer than a query
XFER_TIMEOUT_MS = 10_000


class PrimaryClient:
    """Client side of the calls only a zone's primary server answers."""

    def __init__(
        self,
        host: Host,
        transport: Transport,
        server: Endpoint,
        name: str = "resolver",
    ):
        self.host = host
        self.env = host.env
        self.transport = transport
        self.server = server
        self.name = name
        self._marshallers: typing.Dict[type, HandcodedMarshaller] = {}

    def _call(
        self,
        request: typing.Any,
        reply_type: type,
        timeout_ms: typing.Optional[float] = None,
    ) -> typing.Generator:
        """Marshal ``request``, pay for it, send it, type-check the reply."""
        marshaller = self._marshallers.get(type(request))
        if marshaller is None:
            marshaller = HandcodedMarshaller(request.idl_type)
            self._marshallers[type(request)] = marshaller
        # A write or transfer carries a serial or new data, so it never
        # repeats: marshalled afresh from its wire value, not recalled.
        request_bytes, marshal_cost = marshaller.encode(request.to_idl())
        yield self.host.cpu.compute(marshal_cost)
        reply = yield self.transport.request(
            self.host, self.server, request, len(request_bytes), timeout_ms
        )
        if not isinstance(reply, reply_type):
            raise BindError(f"unexpected reply {reply!r}")
        return reply

    def _check_update(self, status: int, name: object, what: str) -> None:
        if status == STATUS_REFUSED:
            raise UpdateRefused(
                f"server at {self.server} does not accept dynamic updates"
            )
        if status == STATUS_NXDOMAIN:
            raise NameNotFound(f"no zone for {name}")
        if status != STATUS_OK:
            raise BindError(f"{what} failed with status {status}")

    # ------------------------------------------------------------------
    def update(
        self,
        mode: int,
        name: typing.Union[str, DomainName],
        rtype: RRType,
        records: typing.Sequence[ResourceRecord] = (),
    ) -> typing.Generator:
        """Dynamic update (requires the modified BIND); returns new serial.

        ``mode`` is an :class:`~repro.bind.messages.UpdateMode`: ADD,
        DELETE (of the whole record set) or REPLACE.
        """
        name = DomainName(name)
        reply = yield from self._call(
            UpdateRequest(mode, name, rtype, list(records)), UpdateResponse
        )
        self._check_update(reply.status, name, "update")
        return reply.serial

    def update_batch(
        self, ops: typing.Sequence[UpdateOp]
    ) -> typing.Generator:
        """Send several dynamic-update operations in one datagram.

        Returns ``(serial, statuses)`` — the zone's serial after the
        batch and one status per operation.  Raises on the first failed
        operation, like the single-op :meth:`update` would have.
        """
        ops = list(ops)
        if not ops:
            raise ValueError("empty update batch")
        self.env.stats.counter(
            f"bind.{self.name}.update_batches"
        ).increment()
        reply = yield from self._call(
            UpdateBatchRequest(ops), UpdateBatchResponse
        )
        for op, status in zip(ops, reply.statuses):
            self._check_update(
                status, op.name, f"batched update of {op.name}"
            )
        self._check_update(reply.status, ops[0].name, "update batch")
        return reply.serial, list(reply.statuses)

    def subscribe_notify(
        self, origin: DomainName, listener: Endpoint
    ) -> typing.Generator:
        """Ask the primary to push ``origin``'s serial bumps to
        ``listener``; returns the zone serial the subscription starts at."""
        reply = yield from self._call(
            NotifySubscribeRequest(
                origin, str(listener.address), listener.port
            ),
            NotifySubscribeResponse,
        )
        if reply.status != STATUS_OK:
            raise BindError(f"NOTIFY subscription for {origin} refused")
        return reply.serial

    def zone_transfer(
        self, origin: typing.Union[str, DomainName]
    ) -> typing.Generator:
        """AXFR: fetch every record of a zone; returns (serial, records)."""
        origin = DomainName(origin)
        reply = yield from self._call(
            XferRequest(origin), XferResponse, XFER_TIMEOUT_MS
        )
        if reply.status != STATUS_OK:
            raise ZoneNotFound(f"zone transfer of {origin} refused/unknown")
        return reply.serial, list(reply.records)

    def incremental_zone_transfer(
        self, origin: typing.Union[str, DomainName], serial: int
    ) -> typing.Generator:
        """IXFR: fetch the zone's dynamic updates past ``serial``.

        Returns ``(serial, full, deltas, records)``; ``full`` is true
        when the primary's journal no longer covered ``serial`` and the
        reply is a whole-zone snapshot in ``records`` instead.
        """
        origin = DomainName(origin)
        reply = yield from self._call(
            IxfrRequest(origin, serial), IxfrResponse, XFER_TIMEOUT_MS
        )
        if reply.status != STATUS_OK:
            raise ZoneNotFound(f"incremental transfer of {origin} refused/unknown")
        return reply.serial, bool(reply.full), list(reply.deltas), list(reply.records)
