"""The Courier binding agent: the Xerox-side binding protocol.

Courier systems locate services through a binding agent rather than a
portmapper; exchanges run over the stream transport and cost more,
which is why the paper's NSM call range tops out higher on the Xerox
side.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.harness.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hrpc.errors import BindingProtocolError
from repro.net.addresses import WELL_KNOWN_PORTS, Endpoint
from repro.net.host import Host, Service
from repro.net.transport import RemoteCallError, Transport


@dataclasses.dataclass
class LocateService:
    """Where does this service listen?"""
    service: str


@dataclasses.dataclass
class AdvertiseService:
    """A server advertises (or withdraws) its port."""
    service: str
    port: int  # 0 withdraws


@dataclasses.dataclass
class LocateReply:
    """The advertised port (0 = unknown)."""
    port: int


class CourierBinder(Service):
    """Per-host Courier binding agent."""

    def __init__(self, host: Host, calibration: Calibration = DEFAULT_CALIBRATION):
        self.host = host
        self.env = host.env
        self.calibration = calibration
        self._services: typing.Dict[str, int] = {}
        self.endpoint: typing.Optional[Endpoint] = None

    def listen(self, port: int = WELL_KNOWN_PORTS["courier-binder"]) -> Endpoint:
        self.endpoint = self.host.bind(port, self)
        return self.endpoint

    def advertise_local(self, service: str, port: int) -> None:
        if not 0 < port <= 65535:
            raise ValueError(f"bad port {port}")
        self._services[service] = port

    def handle(self, datagram, responder) -> None:
        """Answer on the callback of the server charge: no process."""
        responder.after(
            self.host.cpu.compute(self.calibration.courier_binder_server_ms),
            self._serve,
            datagram.payload,
            responder,
        )

    def _serve(self, request, responder) -> None:
        if isinstance(request, LocateService):
            responder(LocateReply(self._services.get(request.service, 0)), 16)
        elif isinstance(request, AdvertiseService):
            if request.port == 0:
                self._services.pop(request.service, None)
            else:
                self._services[request.service] = request.port
            responder(LocateReply(request.port), 16)
        else:
            responder(LocateReply(0), 16)


class CourierBinderClient:
    """Client side of the Courier binding protocol (one stream exchange)."""

    def __init__(self, host: Host, transport: Transport):
        self.host = host
        self.transport = transport

    def locate(self, server_address, service: str) -> typing.Generator:
        endpoint = Endpoint(server_address, WELL_KNOWN_PORTS["courier-binder"])
        try:
            reply = yield self.transport.request(
                self.host, endpoint, LocateService(service), 48
            )
        except RemoteCallError as err:
            raise BindingProtocolError(str(err)) from err
        if not isinstance(reply, LocateReply):
            raise BindingProtocolError(f"malformed binder reply {reply!r}")
        if reply.port == 0:
            raise BindingProtocolError(
                f"service {service!r} not advertised at {server_address}"
            )
        return reply.port

    def advertise(self, server_address, service: str, port: int) -> typing.Generator:
        endpoint = Endpoint(server_address, WELL_KNOWN_PORTS["courier-binder"])
        reply = yield self.transport.request(
            self.host, endpoint, AdvertiseService(service, port), 48
        )
        if not isinstance(reply, LocateReply):
            raise BindingProtocolError(f"malformed binder reply {reply!r}")
        return reply.port
