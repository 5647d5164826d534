"""The Sun RPC portmapper: program number/name -> port.

This is the native binding protocol of the Sun systems in the testbed.
A binding NSM for Sun-type systems must run this protocol ("the actual
mechanisms employed for naming, server activation, and port
determination vary considerably" — this is the Sun variant).
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
class GetPort:
    """Request: what port does this program listen on?"""

    program: str


@dataclasses.dataclass
class PortReply:
    """The registered port (0 = unknown program)."""
    port: int  # 0 means unknown program


class Portmapper(Service):
    """The per-host registration service on the well-known port."""

    def __init__(
        self,
        host: Host,
        calibration: Calibration = DEFAULT_CALIBRATION,
    ):
        self.host = host
        self.calibration = calibration
        self._ports: typing.Dict[str, int] = {}
        self.endpoint: typing.Optional[Endpoint] = None

    def listen(self, port: int = WELL_KNOWN_PORTS["portmapper"]) -> Endpoint:
        self.endpoint = self.host.bind(port, self)
        return self.endpoint

    def register_local(self, program: str, port: int) -> None:
        """Direct registration for servers on the same host (no RPC)."""
        if not 0 < port <= 65535:
            raise ValueError(f"bad port {port}")
        self._ports[program] = port

    def handle(self, datagram, responder) -> None:
        """Answer on the callback of the server charge: no process."""
        responder.after(
            self.host.cpu.compute(self.calibration.portmapper_server_ms),
            self._serve,
            datagram.payload,
            responder,
        )

    def _serve(self, request, responder) -> None:
        if isinstance(request, GetPort):
            responder(PortReply(self._ports.get(request.program, 0)), 16)
        else:
            responder(PortReply(0), 16)


class PortmapperClient:
    """Client side of the portmapper protocol.

    The Sun binding protocol does two exchanges per binding: a GETPORT
    plus a liveness ping of the registered port (modelled as a second
    portmapper exchange, per ``Calibration.portmapper_exchanges``).
    """

    def __init__(
        self,
        host: Host,
        transport: Transport,
        calibration: Calibration = DEFAULT_CALIBRATION,
    ):
        self.host = host
        self.env = host.env
        self.transport = transport
        self.calibration = calibration

    def get_port(self, server_address, program: str) -> typing.Generator:
        """Run the binding protocol; returns the program's port."""
        endpoint = Endpoint(server_address, WELL_KNOWN_PORTS["portmapper"])
        port = 0
        for _ in range(max(1, self.calibration.portmapper_exchanges)):
            try:
                reply = yield self.transport.request(
                    self.host, endpoint, GetPort(program), 32
                )
            except RemoteCallError as err:
                raise BindingProtocolError(str(err)) from err
            if not isinstance(reply, PortReply):
                raise BindingProtocolError(f"malformed portmapper reply {reply!r}")
            port = reply.port
            if port == 0:
                raise BindingProtocolError(
                    f"program {program!r} not registered at {server_address}"
                )
        return port
