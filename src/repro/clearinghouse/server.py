"""The Clearinghouse server process.

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
class DeleteItem:
    """Remove one property from an object."""
    name: CHName
    prop: str
    credentials: typing.Optional[Credentials]


@dataclasses.dataclass
class CHReply:
    """Status plus (for retrieves) the property value."""
    status: int
    value: bytes = b""

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


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
    def _authenticate(self, credentials: typing.Optional[Credentials]):
        """Charge the full authentication cost, then verify.

        "each access is authenticated" — the check happens even for
        requests that will ultimately fail, and its cost (CPU plus a
        disk access for the credential database) is charged every time.
        """
        cal = self.calibration
        yield self.host.cpu.compute(cal.ch_auth_cpu_ms)
        yield self.host.disk.use(cal.ch_auth_disk_ms)
        if not self.credentials.verify(credentials):
            raise AuthenticationFailed(
                getattr(credentials, "user", "<no credentials>")
            )

    def handle(self, datagram, responder):
        request = datagram.payload
        cal = self.calibration
        env = self.env
        try:
            yield from self._authenticate(getattr(request, "credentials", None))
            if isinstance(request, RetrieveItem):
                env.stats.counter(f"ch.{self.name}.retrieves").increment()
                # The data lives on disk; absence is only discovered by
                # reading, so the disk access happens either way.
                yield self.host.disk.use(cal.ch_data_disk_ms)
                yield self.host.cpu.compute(cal.ch_process_ms)
                value = self.database.retrieve(request.name, request.prop)
                size = self.database.record_size(request.name, request.prop)
                reply = CHReply(STATUS_OK, value)
                data, cost = self._retrieve_reply_m.encode(
                    {"status": STATUS_OK, "value": value}
                )
                yield self.host.cpu.compute(cost)
                if env.trace.enabled:
                    env.trace.emit(
                        "clearinghouse",
                        f"{self.name}: retrieve {request.name} {request.prop} "
                        f"({size} bytes from disk)",
                    )
                responder(reply, len(data))
            elif isinstance(request, AddItem):
                env.stats.counter(f"ch.{self.name}.adds").increment()
                yield self.host.disk.use(cal.ch_data_disk_ms)
                yield self.host.cpu.compute(cal.ch_process_ms)
                self.database.register(request.name, {request.prop: request.value})
                data, cost = self._simple_reply_m.encode({"status": STATUS_OK})
                yield self.host.cpu.compute(cost)
                responder(CHReply(STATUS_OK), len(data))
            elif isinstance(request, DeleteItem):
                env.stats.counter(f"ch.{self.name}.deletes").increment()
                yield self.host.disk.use(cal.ch_data_disk_ms)
                yield self.host.cpu.compute(cal.ch_process_ms)
                self.database.delete_property(request.name, request.prop)
                data, cost = self._simple_reply_m.encode({"status": STATUS_OK})
                yield self.host.cpu.compute(cost)
                responder(CHReply(STATUS_OK), len(data))
            else:
                responder(CHReply(CHError.status), 8)
        except CHError as err:
            data, cost = self._simple_reply_m.encode({"status": err.status})
            yield self.host.cpu.compute(cost)
            env.trace.emit("clearinghouse", f"{self.name}: error {err!r}")
            responder(CHReply(err.status), len(data))

    def describe(self) -> str:
        return f"ClearinghouseServer({self.name}; {len(self.database)} objects)"
