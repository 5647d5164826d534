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
from repro.sim.events import Event


@dataclasses.dataclass
class GetPort:
    """Request: what port does this program listen on?"""

    program: str


@dataclasses.dataclass
class SetPort:
    """Request: a server registers (or clears) its port."""

    program: str
    port: int  # 0 clears the registration


@dataclasses.dataclass
class PortReply:
    """The registered port (0 = unknown program)."""
    port: int  # 0 means unknown program


#: time to fork/exec a dormant server on a 1987 workstation
DEFAULT_ACTIVATION_MS = 250.0


class Portmapper(Service):
    """The per-host registration service on the well-known port.

    Besides static registrations, the portmapper supports *server
    activation* (inetd-style): a program may be registered dormant with
    a factory; the first GETPORT for it pays the activation cost, spawns
    the service on its port, and subsequent bindings find it running —
    one of the per-system "mechanisms employed for naming, server
    activation, and port determination" a binding NSM must drive.
    """

    def __init__(
        self,
        host: Host,
        calibration: Calibration = DEFAULT_CALIBRATION,
        activation_ms: float = DEFAULT_ACTIVATION_MS,
    ):
        if activation_ms < 0:
            raise ValueError("activation cost must be non-negative")
        self.host = host
        self.env = host.env
        self.calibration = calibration
        self.activation_ms = activation_ms
        self._ports: typing.Dict[str, int] = {}
        self._dormant: typing.Dict[
            str, typing.Tuple[int, typing.Callable[[Host, int], object]]
        ] = {}
        #: program -> the activation charge of a program being spawned
        self._activating: typing.Dict[str, Event] = {}
        self.activations = 0
        self.endpoint: typing.Optional[Endpoint] = None

    def listen(self, port: int = WELL_KNOWN_PORTS["portmapper"]) -> Endpoint:
        self.endpoint = self.host.bind(port, self)
        return self.endpoint

    def register_local(self, program: str, port: int) -> None:
        """Direct registration for servers on the same host (no RPC)."""
        if not 0 < port <= 65535:
            raise ValueError(f"bad port {port}")
        self._ports[program] = port

    def register_activatable(
        self,
        program: str,
        port: int,
        factory: typing.Callable[[Host, int], object],
    ) -> None:
        """Register a dormant program.

        ``factory(host, port)`` must create and bind the service when
        the first binding request arrives.
        """
        if not 0 < port <= 65535:
            raise ValueError(f"bad port {port}")
        if program in self._ports:
            raise ValueError(f"{program!r} is already running")
        self._dormant[program] = (port, factory)

    def is_running(self, program: str) -> bool:
        return program in self._ports

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
            program = request.program
            port = self._ports.get(program, 0)
            if port == 0 and program in self._dormant:
                self._activate(program, responder)
                return
            if port == 0 and program in self._activating:
                # Someone else's GETPORT is starting it: answer with the
                # port it comes up on, as inetd would.
                responder.after(
                    self._activating[program], self._send_port, program, responder
                )
                return
            responder(PortReply(port), 16)
        elif isinstance(request, SetPort):
            if request.port == 0:
                self._ports.pop(request.program, None)
            else:
                self._ports[request.program] = request.port
            responder(PortReply(request.port), 16)
        else:
            responder(PortReply(0), 16)

    def _activate(self, program: str, responder) -> None:
        """Spawn a dormant program, then answer with its port."""
        port, factory = self._dormant.pop(program)
        self._activating[program] = spawn = self.host.cpu.compute(self.activation_ms)
        responder.after(spawn, self._activated, program, port, factory, responder)

    def _activated(
        self,
        program: str,
        port: int,
        factory: typing.Callable[[Host, int], object],
        responder,
    ) -> None:
        del self._activating[program]
        factory(self.host, port)
        self._ports[program] = port
        self.activations += 1
        self.env.stats.counter(f"portmapper.{self.host.name}.activations").increment()
        self.env.trace.emit(
            "hrpc", f"portmapper@{self.host.name}: activated {program} on {port}"
        )
        responder(PortReply(port), 16)

    def _send_port(self, program: str, responder) -> None:
        responder(PortReply(self._ports.get(program, 0)), 16)


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

    def set_port(self, server_address, program: str, port: int) -> typing.Generator:
        endpoint = Endpoint(server_address, WELL_KNOWN_PORTS["portmapper"])
        reply = yield self.transport.request(
            self.host, endpoint, SetPort(program, port), 32
        )
        if not isinstance(reply, PortReply):
            raise BindingProtocolError(f"malformed portmapper reply {reply!r}")
        return reply.port
