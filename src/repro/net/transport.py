"""Transports: datagram (UDP-like) and stream (TCP-like) delivery.

The HRPC prototype in the paper mixes and matches transport components
(Sun RPC over UDP, Courier over SPP/TCP, raw TCP and UDP message
passing).  Both transports here deliver :class:`Datagram` objects to a
:class:`~repro.net.host.Service` bound on the destination host and
support request/response with reply correlation, differing in their
failure behaviour:

- **DatagramTransport**: unreliable; messages to dead hosts or unbound
  ports vanish; requests retransmit a few times and then raise
  :class:`TransportTimeout`.
- **StreamTransport**: connection-oriented; connecting to a dead host
  raises :class:`HostDown`, to an unbound port :class:`ConnectionRefused`,
  and delivery is reliable once connected (at the cost of an extra
  round-trip of setup latency on each exchange).

Kernel budget, besides the handler's own charges (``tests/net/test_event_budget.py``):
a request/response is 3 heap entries (wire, reply and deadline ``Timeout``) and
1 process (the handler); a stream adds its connect; a broadcast target is 1 and 1
(1 and 0 when its handler returns ``None``).
"""

from __future__ import annotations

import functools
import typing

from repro.net.errors import (
    ConnectionRefused,
    HostDown,
    TransportTimeout,
)
from repro.net.host import Host
from repro.net.messages import Datagram
from repro.net.addresses import Endpoint
from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.net.internet import Internetwork
    from repro.sim.stats import Counter


class RemoteCallError(Exception):
    """An exception raised by the remote service, carried back to the caller.

    The original exception is available as ``__cause__``-style chaining
    via the ``remote_exception`` attribute.
    """

    def __init__(self, remote_exception: BaseException):
        super().__init__(f"remote service raised {remote_exception!r}")
        self.remote_exception = remote_exception


class Transport:
    """Common machinery for both transports."""

    #: default request timeout (ms); generous relative to testbed RTTs
    DEFAULT_TIMEOUT_MS = 2000.0

    def __init__(self, internet: "Internetwork", name: str):
        self.internet = internet
        self.env = internet.env
        self.name = name

    @functools.cached_property
    def _delivered(self) -> "Counter":
        """Bound at the first delivery, so the stat exists only once counted."""
        return self.env.stats.counter(f"net.{self.name}.delivered")

    # -- one-way ---------------------------------------------------------
    def send(
        self,
        src_host: Host,
        destination: Endpoint,
        payload: object,
        size_bytes: int = 0,
        reply_to: typing.Optional[Endpoint] = None,
        reply_event=None,
    ) -> typing.Generator:
        """Fire-and-forget delivery (may silently vanish on datagrams).

        ``reply_event``, when given, is the untriggered event the
        service's reply succeeds (or its exception fails, wrapped in
        :class:`RemoteCallError`); :meth:`request` passes one.
        """
        raise NotImplementedError

    # -- request/response --------------------------------------------------
    def request(
        self,
        src_host: Host,
        destination: Endpoint,
        payload: object,
        size_bytes: int = 0,
        timeout_ms: typing.Optional[float] = None,
    ) -> typing.Generator:
        """Send a request and yield until the reply payload arrives.

        Returns the reply payload; raises a network error on failure, or
        :class:`RemoteCallError` if the remote service itself raised.
        """
        raise NotImplementedError

    # -- internals --------------------------------------------------------
    def _wire_delay(self, src: Host, dst_address: object, size_bytes: int) -> float:
        """Sampled latency along the route; raises NoRouteToHost."""
        return self.internet.path_delay(src.address, dst_address, size_bytes)

    def _deliver(self, datagram: Datagram, reply_event) -> None:
        """Run after the wire delay: hand the message to the bound service.

        ``reply_event`` (may be None for one-way sends) is failed or
        succeeded according to what the service does.  A generator
        handler's first segment runs here, inside the delivery; ``None``
        (:meth:`~repro.net.host.Service.handle`) starts no process.
        """
        env = self.env
        dst_host = self.internet.host_at(datagram.destination.address)
        if dst_host is None or not dst_host.is_up:
            # Message to a dead host: datagram semantics say it vanishes.
            env.trace.emit(
                "net", f"lost: {datagram} (host down/unknown)", transport=self.name
            )
            return
        service = dst_host.service_at(datagram.destination.port)
        if service is None:
            env.trace.emit(
                "net", f"lost: {datagram} (no service)", transport=self.name
            )
            return
        self._delivered.increment()
        exchange = _Exchange(self, datagram, dst_host, reply_event)
        handler = service.handle(datagram, exchange.respond)
        if handler is None:
            return
        env.process(
            exchange.run_handler(handler), name=f"{self.name}.handler", inline=True
        )


class _Exchange:
    """One delivered message: its handler, and its reply's way back."""

    __slots__ = ("transport", "datagram", "dst_host", "reply_event", "replied")

    def __init__(
        self, transport: Transport, datagram: Datagram, dst_host: Host, reply_event
    ):
        self.transport = transport
        self.datagram = datagram
        self.dst_host = dst_host
        self.reply_event = reply_event
        self.replied = False

    def run_handler(self, handler: typing.Generator) -> typing.Generator:
        reply_event = self.reply_event
        try:
            yield from handler
        except BaseException as exc:  # noqa: BLE001 - carried to caller
            if reply_event is not None and not reply_event.triggered:
                reply_event.fail(RemoteCallError(exc))
            else:
                raise

    def respond(self, payload: object, size_bytes: int = 0) -> None:
        """Send the reply back across the wire to the requester."""
        if self.reply_event is None:
            return
        if self.replied:
            raise RuntimeError("service replied twice to one request")
        self.replied = True
        transport = self.transport
        delay = transport._wire_delay(
            self.dst_host, self.datagram.source.address, size_bytes
        )
        transport.env.call_later(delay, self._reply_arrives, payload)

    def _reply_arrives(self, trip) -> None:
        transport = self.transport
        src = transport.internet.host_at(self.datagram.source.address)
        if src is None or not src.is_up:
            transport.env.trace.emit("net", "reply lost: requester down")
            return
        if not self.reply_event.triggered:
            # The requester resumes inside this reply's own heap entry.
            self.reply_event.succeed_now(trip._value)


class DatagramTransport(Transport):
    """Unreliable datagram delivery with retransmission on request()."""

    def __init__(
        self,
        internet: "Internetwork",
        name: str = "udp",
        retries: int = 3,
        retry_timeout_ms: float = 500.0,
    ):
        super().__init__(internet, name)
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.retries = retries
        self.retry_timeout_ms = retry_timeout_ms

    @functools.cached_property
    def _broadcasts(self) -> "Counter":
        """Bound at the first broadcast, likewise."""
        return self.env.stats.counter(f"net.{self.name}.broadcasts")

    def send(
        self,
        src_host: Host,
        destination: Endpoint,
        payload: object,
        size_bytes: int = 0,
        reply_to: typing.Optional[Endpoint] = None,
        reply_event=None,
    ) -> typing.Generator:
        if not src_host.is_up:
            raise HostDown(f"source host {src_host.name} is down")
        datagram = Datagram(
            source=reply_to or src_host.ephemeral_endpoint(),
            destination=destination,
            payload=payload,
            size_bytes=size_bytes,
            reply_to=reply_to,
            msg_id=self.internet.next_msg_id(),
        )
        segment_drop = self.internet.segment_would_drop(
            src_host.address, destination.address
        )
        delay = self._wire_delay(src_host, destination.address, size_bytes)
        yield self.env.timeout(delay)
        if segment_drop:
            self.env.trace.emit("net", f"dropped on wire: {datagram}")
            return
        self._deliver(datagram, reply_event)

    def broadcast(
        self,
        src_host: Host,
        port: int,
        payload: object,
        size_bytes: int = 0,
        wait_ms: float = 100.0,
        first_only: bool = False,
    ) -> typing.Generator:
        """Send to every host on the source's segment; gather replies.

        Models the multicast location technique [Cheriton & Mann 1984].
        Returns the list of reply payloads received within ``wait_ms``
        (or just the first, if ``first_only``).  Every host on the wire
        receives and processes the packet — the cost that makes
        broadcast-based location unattractive at scale.
        """
        if not src_host.is_up:
            raise HostDown(f"source host {src_host.name} is down")
        env = self.env
        src_address = src_host.address
        # Every target is on the source's own segment: that is the route.
        segment, _ = self.internet._route(src_address, src_address)
        would_drop = segment.would_drop
        deliver = self._deliver
        replies: typing.List[object] = []
        first = env.event()

        def arrive(trip):
            datagram = trip._value
            if would_drop(src_address, datagram.destination.address):
                return
            collector = Event(env)
            collector.callbacks.append(collect)
            deliver(datagram, collector)

        def collect(event):
            if not event.ok:
                event.defuse()
                return
            replies.append(event._value)
            if not first.triggered:
                first.succeed_now(event._value)

        # One timed callback per target: its own delay draw now, its own
        # drop check when the packet lands.
        ephemeral_endpoint = src_host.ephemeral_endpoint
        next_msg_id = self.internet.next_msg_id
        delay_for = segment.delay_for
        call_later = env.call_later
        for target in segment.hosts:
            if target is src_host:
                continue
            datagram = Datagram(
                ephemeral_endpoint(), Endpoint(target.address, port),
                payload, size_bytes, None, next_msg_id(),
            )
            call_later(delay_for(size_bytes), arrive, datagram)
        self._broadcasts.increment()
        if first_only:
            timer = env.timeout(wait_ms)
            yield env.any_of([first, timer])
            return replies[:1]
        yield env.timeout(wait_ms)
        return list(replies)

    def request(
        self,
        src_host: Host,
        destination: Endpoint,
        payload: object,
        size_bytes: int = 0,
        timeout_ms: typing.Optional[float] = None,
    ) -> typing.Generator:
        env = self.env
        deadline = timeout_ms if timeout_ms is not None else self.retry_timeout_ms
        reply_to = src_host.ephemeral_endpoint()
        last_error: typing.Optional[Exception] = None
        for attempt in range(self.retries + 1):
            reply_event = env.event()
            yield from self.send(
                src_host,
                destination,
                payload,
                size_bytes,
                reply_to=reply_to,
                reply_event=reply_event,
            )
            timer = env.timeout(deadline)
            yield env.any_of([reply_event, timer])
            if reply_event.triggered:
                return reply_event.value
            env.stats.counter(f"net.{self.name}.retransmits").increment()
            last_error = TransportTimeout(
                f"no reply from {destination} after attempt {attempt + 1}"
            )
            # Abandon the stale reply event; a late reply is ignored.
            reply_event.defuse()
        raise last_error or TransportTimeout(str(destination))


class StreamTransport(Transport):
    """Reliable, connection-oriented delivery (TCP-like).

    Each exchange pays one extra round trip of connection setup, the
    price of reliability the paper's TCP-based systems paid.
    """

    def __init__(self, internet: "Internetwork", name: str = "tcp"):
        super().__init__(internet, name)

    def _connect(self, src_host: Host, destination: Endpoint) -> typing.Generator:
        """Connection setup: one round trip; validates the far end."""
        if not src_host.is_up:
            raise HostDown(f"source host {src_host.name} is down")
        rtt = self._wire_delay(src_host, destination.address, 64) + self._wire_delay(
            src_host, destination.address, 64
        )
        yield self.env.timeout(rtt)
        dst_host = self.internet.host_at(destination.address)
        if dst_host is None or not dst_host.is_up:
            raise HostDown(f"{destination.address} unreachable")
        if dst_host.service_at(destination.port) is None:
            raise ConnectionRefused(str(destination))

    def send(
        self,
        src_host: Host,
        destination: Endpoint,
        payload: object,
        size_bytes: int = 0,
        reply_to: typing.Optional[Endpoint] = None,
        reply_event=None,
    ) -> typing.Generator:
        yield from self._connect(src_host, destination)
        datagram = Datagram(
            source=reply_to or src_host.ephemeral_endpoint(),
            destination=destination,
            payload=payload,
            size_bytes=size_bytes,
            reply_to=reply_to,
            msg_id=self.internet.next_msg_id(),
        )
        delay = self._wire_delay(src_host, destination.address, size_bytes)
        yield self.env.timeout(delay)
        # Reliable: destination validated at connect time; if it crashed
        # between connect and transfer, surface the failure loudly.
        dst_host = self.internet.host_at(destination.address)
        if dst_host is None or not dst_host.is_up:
            raise HostDown(f"{destination.address} died mid-transfer")
        self._deliver(datagram, reply_event)

    def request(
        self,
        src_host: Host,
        destination: Endpoint,
        payload: object,
        size_bytes: int = 0,
        timeout_ms: typing.Optional[float] = None,
    ) -> typing.Generator:
        env = self.env
        deadline = timeout_ms if timeout_ms is not None else self.DEFAULT_TIMEOUT_MS
        reply_to = src_host.ephemeral_endpoint()
        reply_event = env.event()
        yield from self.send(
            src_host,
            destination,
            payload,
            size_bytes,
            reply_to=reply_to,
            reply_event=reply_event,
        )
        timer = env.timeout(deadline)
        yield env.any_of([reply_event, timer])
        if reply_event.triggered:
            return reply_event.value
        reply_event.defuse()
        raise TransportTimeout(f"no reply from {destination} within {deadline} ms")
