"""Clearinghouse client stub.

Speaks Courier to a Clearinghouse server, presenting credentials on
every call.  The calibrated end-to-end retrieve cost is ~156 ms: "each
access is authenticated, and virtually all data is retrieved from
disk".
"""

from __future__ import annotations

import typing

from repro.clearinghouse.auth import Credentials
from repro.clearinghouse.errors import (
    AuthenticationFailed,
    CHError,
    NoSuchObject,
    NoSuchProperty,
)
from repro.clearinghouse.names import CHName
from repro.clearinghouse.server import (
    AddItem,
    CHReply,
    DeleteItem,
    RETRIEVE_REQUEST_IDL,
    RetrieveItem,
    STATUS_OK,
)
from repro.net.addresses import Endpoint
from repro.net.host import Host
from repro.net.transport import Transport
from repro.serial import CourierRepresentation, HandcodedMarshaller

_STATUS_TO_ERROR: typing.Dict[int, typing.Type[CHError]] = {
    AuthenticationFailed.status: AuthenticationFailed,
    NoSuchObject.status: NoSuchObject,
    NoSuchProperty.status: NoSuchProperty,
}


class ClearinghouseClient:
    """Client-side access to one Clearinghouse server."""

    def __init__(
        self,
        host: Host,
        transport: Transport,
        server: Endpoint,
        credentials: Credentials,
        name: str = "ch-client",
    ):
        self.host = host
        self.env = host.env
        self.transport = transport
        self.server = server
        self.credentials = credentials
        self.name = name
        self._request_m = HandcodedMarshaller(
            RETRIEVE_REQUEST_IDL, representation=CourierRepresentation()
        )

    def _roundtrip(self, request: object, request_size: int) -> typing.Generator:
        reply = yield self.transport.request(
            self.host, self.server, request, request_size
        )
        if not isinstance(reply, CHReply):
            raise CHError(f"unexpected reply {reply!r}")
        if reply.status != STATUS_OK:
            error_cls = _STATUS_TO_ERROR.get(reply.status, CHError)
            raise error_cls(f"server returned status {reply.status}")
        return reply

    def _request_size(self, name: CHName, prop: str) -> typing.Generator:
        data, cost = self._request_m.encode(
            {
                "name": str(name),
                "property": prop,
                "user": self.credentials.user,
                "proof": self.credentials.proof(),
            }
        )
        yield self.host.cpu.compute(cost)
        return len(data)

    # ------------------------------------------------------------------
    def retrieve(
        self, name: typing.Union[str, CHName], prop: str
    ) -> typing.Generator:
        """Fetch one property value; raises CH errors on failure."""
        name = name if isinstance(name, CHName) else CHName.parse(name)
        size = yield from self._request_size(name, prop)
        self.env.stats.counter(f"ch.{self.name}.lookups").increment()
        reply = yield from self._roundtrip(
            RetrieveItem(name, prop, self.credentials), size
        )
        # Courier demarshalling of the small reply.
        yield self.host.cpu.compute(0.65)
        return reply.value

    def lookup_address(self, name: typing.Union[str, CHName]) -> typing.Generator:
        """Name-to-address: the 156 ms operation the paper measures."""
        value = yield from self.retrieve(name, "address")
        return ".".join(str(b) for b in value)

    def register(
        self, name: typing.Union[str, CHName], prop: str, value: bytes
    ) -> typing.Generator:
        name = name if isinstance(name, CHName) else CHName.parse(name)
        size = yield from self._request_size(name, prop)
        yield from self._roundtrip(
            AddItem(name, prop, value, self.credentials), size + len(value)
        )

    def delete(self, name: typing.Union[str, CHName], prop: str) -> typing.Generator:
        name = name if isinstance(name, CHName) else CHName.parse(name)
        size = yield from self._request_size(name, prop)
        yield from self._roundtrip(DeleteItem(name, prop, self.credentials), size)
