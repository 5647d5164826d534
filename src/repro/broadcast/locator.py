"""Decentralized name interpretation over broadcast."""

from __future__ import annotations

import typing

from repro.broadcast.messages import NameAnswer, NameQuery
from repro.harness.calibration import Calibration, DEFAULT_CALIBRATION
from repro.net.host import Host, Service
from repro.net.transport import DatagramTransport

#: the well-known port every name-owner service listens on
LOCATOR_PORT = 1111

#: CPU cost for a host to examine a broadcast query it does not own —
#: the per-host tax broadcast location levies on the whole segment.
EXAMINE_COST_MS = 1.5
#: CPU cost to answer for an owned name
ANSWER_COST_MS = 4.0

__all__ = [
    "ANSWER_COST_MS",
    "BroadcastLocator",
    "EXAMINE_COST_MS",
    "LOCATOR_PORT",
    "NameAnswer",
    "NameOwnerService",
    "NameQuery",
]


class NameOwnerService(Service):
    """Per-host service answering broadcasts for the names it owns.

    'names are interpreted by the services that provide named entities,
    rather than by a logically centralized name service.'
    """

    def __init__(self, host: Host, calibration: Calibration = DEFAULT_CALIBRATION):
        self.host = host
        self.env = host.env
        self.calibration = calibration
        self._owned: typing.Dict[str, typing.Dict[str, str]] = {}
        self.examined = 0
        self.answered = 0
        host.bind(LOCATOR_PORT, self)

    def own(self, name: str, **data: object) -> None:
        """Claim a name (e.g. a service this host provides).

        Field values are stringified: answers travel as wire messages
        (see :mod:`repro.broadcast.messages`), not Python objects.
        """
        if not name:
            raise ValueError("cannot own the empty name")
        self._owned[name.lower()] = {
            key: str(value) for key, value in data.items()
        }

    def disown(self, name: str) -> bool:
        return self._owned.pop(name.lower(), None) is not None

    def owns(self, name: str) -> bool:
        return name.lower() in self._owned

    def handle(self, datagram, responder):
        request = datagram.payload
        if not isinstance(request, NameQuery):
            return
        # Every host pays to look at every broadcast query.
        self.examined += 1
        self.env.stats.counter("broadcast.examined").increment()
        yield self.host.cpu.compute(EXAMINE_COST_MS)
        data = self._owned.get(request.name.lower())
        if data is None:
            return  # silence: not mine
        yield self.host.cpu.compute(ANSWER_COST_MS)
        self.answered += 1
        self.env.stats.counter("broadcast.answered").increment()
        responder(
            NameAnswer(
                name=request.name,
                owner=self.host.name,
                address=str(self.host.address),
                data=dict(data),
            ),
            size_bytes=96,
        )


class BroadcastLocator:
    """Client side: multicast the query, take the first answer."""

    def __init__(
        self,
        host: Host,
        transport: DatagramTransport,
        wait_ms: float = 60.0,
    ):
        if wait_ms <= 0:
            raise ValueError("wait window must be positive")
        self.host = host
        self.env = host.env
        self.transport = transport
        self.wait_ms = wait_ms

    def locate(self, name: str) -> typing.Generator:
        """Find the owner of ``name``; returns a :class:`NameAnswer`.

        Raises LookupError if nobody answered within the window.
        """
        self.env.stats.counter("broadcast.locates").increment()
        replies = yield from self.transport.broadcast(
            self.host,
            LOCATOR_PORT,
            NameQuery(name),
            size_bytes=64 + len(name),
            wait_ms=self.wait_ms,
            first_only=True,
        )
        if not replies:
            raise LookupError(f"no host on the segment owns {name!r}")
        answer = replies[0]
        if not isinstance(answer, NameAnswer):
            raise LookupError(f"malformed broadcast answer {answer!r}")
        return answer
