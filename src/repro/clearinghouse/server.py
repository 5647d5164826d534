"""The Clearinghouse server.

Request handling order mirrors the original's cost profile: first
authenticate (CPU + credential-database disk access), then touch the
property database on disk, then process and reply in Courier format.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.clearinghouse.auth import Credentials, CredentialStore
from repro.clearinghouse.database import PropertyDatabase
from repro.clearinghouse.errors import AuthenticationFailed, CHError
from repro.clearinghouse.names import CHName
from repro.harness.calibration import Calibration, DEFAULT_CALIBRATION
from repro.net.addresses import WELL_KNOWN_PORTS, Endpoint
from repro.net.host import Host, Service
from repro.serial import (
    CourierRepresentation,
    HandcodedMarshaller,
    OpaqueType,
    StringType,
    StructType,
    U32Type,
)

STATUS_OK = 0

RETRIEVE_REQUEST_IDL = StructType(
    "CHRetrieveRequest",
    [
        ("name", StringType(128)),
        ("property", StringType(40)),
        ("user", StringType(40)),
        ("proof", OpaqueType(32)),
    ],
)
RETRIEVE_RESPONSE_IDL = StructType(
    "CHRetrieveResponse",
    [("status", U32Type()), ("value", OpaqueType(256))],
)
REGISTER_REQUEST_IDL = StructType(
    "CHRegisterRequest",
    [
        ("name", StringType(128)),
        ("property", StringType(40)),
        ("value", OpaqueType(256)),
        ("user", StringType(40)),
        ("proof", OpaqueType(32)),
    ],
)
SIMPLE_RESPONSE_IDL = StructType("CHSimpleResponse", [("status", U32Type())])


@dataclasses.dataclass
class RetrieveItem:
    """Fetch one property of one object."""
    name: CHName
    prop: str
    credentials: typing.Optional[Credentials]


@dataclasses.dataclass
class AddItem:
    """Register (or extend) an object with one property."""
    name: CHName
    prop: str
    value: bytes
    credentials: typing.Optional[Credentials]


@dataclasses.dataclass
class CHReply:
    """Status plus (for retrieves) the property value."""
    status: int
    value: bytes = b""


class ClearinghouseServer(Service):
    """One Clearinghouse serving a set of (domain, organization) pairs."""

    def __init__(
        self,
        host: Host,
        database: typing.Optional[PropertyDatabase] = None,
        credential_store: typing.Optional[CredentialStore] = None,
        calibration: Calibration = DEFAULT_CALIBRATION,
        name: str = "",
    ):
        self.host = host
        self.env = host.env
        self.calibration = calibration
        self.name = name or f"clearinghouse@{host.name}"
        self.database = database if database is not None else PropertyDatabase()
        self.credentials = (
            credential_store if credential_store is not None else CredentialStore()
        )
        self.endpoint: typing.Optional[Endpoint] = None
        courier = CourierRepresentation()
        self._retrieve_reply_m = HandcodedMarshaller(
            RETRIEVE_RESPONSE_IDL, representation=courier
        )
        self._simple_reply_m = HandcodedMarshaller(
            SIMPLE_RESPONSE_IDL, representation=courier
        )

    def listen(self, port: int = WELL_KNOWN_PORTS["clearinghouse"]) -> Endpoint:
        self.endpoint = self.host.bind(port, self)
        return self.endpoint

    # ------------------------------------------------------------------
    # Service interface: each step runs on the callback of the charge
    # before it (``responder.after``), so a request is no process.
    # ------------------------------------------------------------------
    def handle(self, datagram, responder) -> None:
        """Authenticate, read the property database, reply.

        "each access is authenticated" — the check happens even for
        requests that will ultimately fail, and its cost (CPU plus a
        disk access for the credential database) is charged every time.
        """
        request = datagram.payload
        responder.after(
            self.host.cpu.compute(self.calibration.ch_auth_cpu_ms),
            self._read_credentials,
            request,
            getattr(request, "credentials", None),
            responder,
        )

    def _read_credentials(
        self, request, credentials: typing.Optional[Credentials], responder
    ) -> None:
        responder.after(
            self.host.disk.use(self.calibration.ch_auth_disk_ms),
            self._dispatch,
            request,
            credentials,
            responder,
        )

    def _dispatch(
        self, request, credentials: typing.Optional[Credentials], responder
    ) -> None:
        if not self.credentials.verify(credentials):
            self._refuse(
                AuthenticationFailed(
                    getattr(credentials, "user", "<no credentials>")
                ),
                responder,
            )
            return
        if isinstance(request, RetrieveItem):
            kind = "retrieves"
        elif isinstance(request, AddItem):
            kind = "adds"
        else:
            responder(CHReply(CHError.status), 8)
            return
        self.env.stats.counter(f"ch.{self.name}.{kind}").increment()
        # The data lives on disk; absence is only discovered by reading,
        # so the disk access happens either way.
        responder.after(
            self.host.disk.use(self.calibration.ch_data_disk_ms),
            self._process,
            request,
            responder,
        )

    def _process(self, request, responder) -> None:
        responder.after(
            self.host.cpu.compute(self.calibration.ch_process_ms),
            self._access,
            request,
            responder,
        )

    def _access(self, request, responder) -> None:
        """The database operation itself, then its marshalled reply."""
        database = self.database
        try:
            if isinstance(request, RetrieveItem):
                value = database.retrieve(request.name, request.prop)
                size = database.record_size(request.name, request.prop)
            else:
                database.register(request.name, {request.prop: request.value})
        except CHError as err:
            self._refuse(err, responder)
            return
        if not isinstance(request, RetrieveItem):
            data, cost = self._simple_reply_m.encode({"status": STATUS_OK})
            responder.after(
                self.host.cpu.compute(cost), responder, CHReply(STATUS_OK), len(data)
            )
            return
        data, cost = self._retrieve_reply_m.encode(
            {"status": STATUS_OK, "value": value}
        )
        responder.after(
            self.host.cpu.compute(cost),
            self._send_value,
            request,
            CHReply(STATUS_OK, value),
            size,
            len(data),
            responder,
        )

    def _send_value(
        self, request: RetrieveItem, reply: CHReply, size: int, wire: int, responder
    ) -> None:
        if self.env.trace.enabled:
            self.env.trace.emit(
                "clearinghouse",
                f"{self.name}: retrieve {request.name} {request.prop} "
                f"({size} bytes from disk)",
            )
        responder(reply, wire)

    def _refuse(self, err: CHError, responder) -> None:
        """Answer with ``err``'s status: the Courier error reply."""
        data, cost = self._simple_reply_m.encode({"status": err.status})
        responder.after(
            self.host.cpu.compute(cost), self._send_refusal, err, len(data), responder
        )

    def _send_refusal(self, err: CHError, wire: int, responder) -> None:
        self.env.trace.emit("clearinghouse", f"{self.name}: error {err!r}")
        responder(CHReply(err.status), wire)
