"""Simulated hosts and the services bound on them.

A :class:`Host` models one machine in the HCS testbed: it has a name, an
address, a *system type* (the heterogeneity axis the paper cares about),
a CPU and a disk, and a table of services bound to ports.  Hosts can
crash and restart, which the failure-injection tests use.
"""

from __future__ import annotations

import typing

from repro.net.addresses import Endpoint, NetworkAddress
from repro.net.errors import PortInUse
from repro.sim.kernel import Environment
from repro.sim.resources import CPU, Disk

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.net.messages import Datagram

_new = object.__new__
#: a frozen dataclass's fields are set the way its own ``__init__`` sets them
_setattr = object.__setattr__


class Service:
    """Base class for anything bound to a host port.

    Subclasses implement :meth:`handle`, called once for each delivered
    message.
    """

    def handle(
        self,
        datagram: "Datagram",
        responder: typing.Any,
    ) -> typing.Optional[typing.Generator]:
        """Handle one delivered message; two return forms.

        ``responder(payload, size_bytes)`` sends the reply to whoever
        waits for one.

        **None** says "handled; nothing to run as a process": the form
        for a handler whose whole life is charges and the state reads
        between them.  Each step is a callback of the charge before it,
        so every read happens at the instant the charge ends, as in a
        generator: ``responder.after(cpu.compute(ms), step, *args)``.
        What ``handle`` or such a step raises reaches a waiting requester
        as :class:`~repro.net.transport.RemoteCallError`, as a
        generator's would; for a broadcast or a one-way message it
        surfaces from ``env.run()``.  A bare
        ``cpu.compute(ms).callbacks.append(...)`` (how
        :class:`~repro.discovery.beacon.BeaconService` absorbs a beacon)
        costs the same and carries nothing: what it raises surfaces.

        **A generator** runs as a process from inside the delivery: it
        may yield simulation events (CPU time, disk reads, nested calls),
        and what it raises reaches a waiting requester as
        :class:`~repro.net.transport.RemoteCallError`.  A handler keeps
        a process only when it must: it waits on something other than
        its own charges (an HRPC procedure, a nested request), or a span
        encloses its charges (``BindServer``'s update batch).
        """
        raise NotImplementedError


class Host:
    """One machine: CPU + disk + network presence + bound services.

    ``address`` is fixed for the host's life (only ``__init__`` writes
    it), so :meth:`endpoint` may build each port's endpoint once.
    ``is_up`` is a plain attribute, read on every send, attempt, delivery
    and reply; only :meth:`crash` and :meth:`restart` write it.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        address: NetworkAddress,
        system_type: str = "unix",
    ):
        self.env = env
        self.name = name
        self.address = address
        self.system_type = system_type
        self.cpu = CPU(env, name=f"{name}.cpu")
        self.disk = Disk(env, name=f"{name}.disk")
        self.services: typing.Dict[int, Service] = {}
        self.is_up = True
        self._next_ephemeral = 32768
        self._endpoints: typing.Dict[int, Endpoint] = {}

    # ------------------------------------------------------------------
    # Liveness (failure injection)
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Take the host down; in-flight messages to it are lost."""
        self.is_up = False

    def restart(self) -> None:
        """Bring the host back up (services stay bound: warm restart)."""
        self.is_up = True

    # ------------------------------------------------------------------
    # Ports and services
    # ------------------------------------------------------------------
    def bind(self, port: int, service: Service) -> Endpoint:
        """Attach ``service`` to ``port``; returns its endpoint."""
        if port in self.services:
            raise PortInUse(f"{self.name}:{port} already bound")
        if not isinstance(service, Service):
            raise TypeError(f"expected a Service, got {type(service).__name__}")
        self.services[port] = service
        return self.endpoint(port)

    def service_at(self, port: int) -> typing.Optional[Service]:
        return self.services.get(port)

    def endpoint(self, port: int) -> Endpoint:
        """This host's endpoint on ``port``: built at the first ask, the
        same object after (a broadcast names every listener's)."""
        endpoint = self._endpoints.get(port)
        if endpoint is None:
            endpoint = self._endpoints[port] = Endpoint(self.address, port)
        return endpoint

    def ephemeral_endpoint(self) -> Endpoint:
        """A fresh client-side endpoint (for reply routing), built in
        place: its port is valid by construction, so no constructor
        frame checks it."""
        port = self._next_ephemeral
        self._next_ephemeral = port + 1 if port < 65535 else 32768
        endpoint = _new(Endpoint)
        _setattr(endpoint, "address", self.address)
        _setattr(endpoint, "port", port)
        return endpoint

    def __repr__(self) -> str:
        state = "up" if self.is_up else "DOWN"
        return f"<Host {self.name} ({self.system_type}) {self.address} {state}>"
