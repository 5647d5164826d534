"""Transports: datagram (UDP-like) and stream (TCP-like) delivery.

The HRPC prototype in the paper mixes and matches transport components
(Sun RPC over UDP, Courier over SPP/TCP, raw TCP and UDP message
passing).  Both transports here deliver :class:`Datagram` objects to a
:class:`~repro.net.host.Service` bound on the destination host and
support request/response with reply correlation, differing in their
failure behaviour:

- **DatagramTransport**: unreliable; messages to dead hosts or unbound
  ports vanish, and a request and its reply each draw the wire's loss
  decision; requests retransmit a few times and then raise
  :class:`TransportTimeout`.
- **StreamTransport**: connection-oriented; connecting to a dead host
  raises :class:`HostDown`, to an unbound port :class:`ConnectionRefused`,
  and delivery is reliable once connected (at the cost of an extra
  round-trip of setup latency on each exchange), unless a partition
  severs the exchange, which then times out.

An exchange is events, not a process: :meth:`Transport.request` returns
the call event its caller yields (``reply = yield transport.request(...)``),
and the wire trip, connect, deadline and retransmit are timed callbacks
(``env.call_later``) that end by succeeding or failing it.

Kernel budget, besides the handler's own charges (``tests/net/test_event_budget.py``):
a request/response is 3 heap entries (wire, reply and deadline) and no
process of its own; the handler is 1 process when ``handle`` returns a
generator and 0 when it returns ``None``.  A stream adds its connect; a
broadcast is 1 entry per arrival instant (per run of same-delay
targets), and 1 or 0 processes per target likewise.

Host budget: an exchange's wire values — the attempt's
:class:`Datagram`, the ephemeral reply :class:`Endpoint`, the
:class:`_Call`, the :class:`_Exchange` and a broadcast's collectors —
are filled in place, with no constructor frame; their checks (a
message's size) are made once, at :meth:`Transport.request`,
:meth:`~Transport.send` and :meth:`DatagramTransport.broadcast`.  A hop
resolves its route once: :meth:`~repro.net.internet.Internetwork.hop`
returns its loss decision and its sampled delay.
"""

from __future__ import annotations

import functools
import typing

from repro.memo import first_use
from repro.net.errors import (
    ConnectionRefused,
    HostDown,
    NetworkError,
    TransportTimeout,
)
from repro.net.host import Host
from repro.net.messages import Datagram
from repro.net.addresses import Endpoint
from repro.sim.events import _PENDING, Event

#: an instance with no ``__init__`` run: its fields are filled in place
_new = object.__new__

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.net.internet import Internetwork
    from repro.sim.kernel import Environment
    from repro.sim.stats import Counter


class RemoteCallError(Exception):
    """An exception raised by the remote service, carried back to the caller.

    The original exception is available as ``__cause__``-style chaining
    via the ``remote_exception`` attribute.
    """

    def __init__(self, remote_exception: BaseException):
        super().__init__(f"remote service raised {remote_exception!r}")
        self.remote_exception = remote_exception


class _Call(Event):
    """One request in flight: the event its caller yields for the reply.

    Its attempts are timed callbacks on the transport that made it; the
    reply succeeds it, and a network failure or the remote service's
    exception fails it.  ``datagram`` is the current attempt's, and only
    a reply to its ``msg_id`` is taken.  :meth:`Transport.request` is the
    one place a call is built (filled in place).
    """

    __slots__ = (
        "src_host",
        "destination",
        "payload",
        "size_bytes",
        "deadline",
        "reply_to",
        "attempt",
        "datagram",
    )

    src_host: Host
    destination: Endpoint
    payload: object
    size_bytes: int
    deadline: float
    reply_to: Endpoint
    attempt: int
    datagram: typing.Optional[Datagram]

    def __init__(self, *_args: object, **_kwargs: object):
        raise TypeError("a _Call is built by Transport.request")

    def __iter__(self) -> typing.Generator:
        """``yield from transport.request(...)`` works as ``yield`` does
        (the ``asyncio.Future`` idiom)."""
        return (yield self)

    def _waiter_left(self, _interrupt: Event) -> None:
        """The requester was interrupted: the call is abandoned, as an
        abandoned request generator was — nothing more is sent or
        delivered for it, and nothing it would have raised surfaces."""
        self._defused = True
        if self._value is _PENDING:
            self._value = None
            self.callbacks = None


class Transport:
    """Common machinery for both transports."""

    #: default request timeout (ms); generous relative to testbed RTTs
    DEFAULT_TIMEOUT_MS = 2000.0
    #: how long an attempt waits for its reply unless the request says
    #: otherwise (ms); a datagram transport sets its own
    retry_timeout_ms = DEFAULT_TIMEOUT_MS
    #: whether a message may be lost at random (a datagram), or only
    #: severed by a partition (a stream's bytes)
    lossy = False

    def __init__(self, internet: "Internetwork", name: str):
        self.internet = internet
        self.env = internet.env
        self.name = name
        # The internet's address table (never replaced, only filled):
        # a delivery or a reply finds its host with no lookup frame.
        self._hosts_by_address = internet._hosts_by_address

    @first_use
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
    ) -> typing.Generator:
        """Fire-and-forget delivery (may silently vanish on datagrams)."""
        raise NotImplementedError

    # -- request/response --------------------------------------------------
    def request(
        self,
        src_host: Host,
        destination: Endpoint,
        payload: object,
        size_bytes: int = 0,
        timeout_ms: typing.Optional[float] = None,
    ) -> _Call:
        """Send a request; returns the event to yield for the reply.

        The event carries the reply payload, or fails with a network
        error, or with :class:`RemoteCallError` if the remote service
        itself raised.  A negative ``size_bytes`` raises ``ValueError``
        and a source host that is down :class:`HostDown`, here, at the
        call.
        """
        if size_bytes < 0:
            raise ValueError(f"negative message size: {size_bytes}")
        env = self.env
        call = _new(_Call)
        call.env = env
        call.callbacks = []
        call._value = _PENDING
        call._exception = None
        call._defused = False
        call.src_host = src_host
        call.destination = destination
        call.payload = payload
        call.size_bytes = size_bytes
        call.deadline = self.retry_timeout_ms if timeout_ms is None else timeout_ms
        call.reply_to = src_host.ephemeral_endpoint()
        call.attempt = 0
        call.datagram = None
        self._start(call)
        return call

    def _start(self, call: _Call) -> None:
        """Put a new call on its way."""
        raise NotImplementedError

    # -- internals --------------------------------------------------------
    def _deliver(self, datagram: Datagram, waiter: typing.Optional[Event]) -> None:
        """Run after the wire delay: hand the message to the bound service.

        ``waiter`` (None for one-way sends) is the event the service's
        reply succeeds or its exception fails.  A generator handler's
        first segment runs here, inside the delivery; ``None``
        (:meth:`~repro.net.host.Service.handle`) starts no process.
        """
        env = self.env
        address = datagram.destination.address
        dst_host = self._hosts_by_address.get(getattr(address, "dotted", address))
        # A loss is formatted only for a tracer that records it: every
        # beacon a crashed listener misses passes here.
        if dst_host is None or not dst_host.is_up:
            # Message to a dead host: datagram semantics say it vanishes.
            if env.trace.enabled:
                env.trace.emit(
                    "net", f"lost: {datagram} (host down/unknown)", transport=self.name
                )
            return
        service = dst_host.services.get(datagram.destination.port)
        if service is None:
            if env.trace.enabled:
                env.trace.emit(
                    "net", f"lost: {datagram} (no service)", transport=self.name
                )
            return
        self._delivered.increment()
        exchange = _new(_Exchange)
        exchange.transport = self
        exchange.datagram = datagram
        exchange.dst_host = dst_host
        exchange.waiter = waiter
        exchange.replied = False
        try:
            handler = service.handle(datagram, exchange)
        except Exception as exc:  # noqa: BLE001 - a requester's to hear
            exchange._step_failed(exc)
            return
        if handler is None:
            return
        env.process(
            exchange.run_handler(handler), name=f"{self.name}.handler", inline=True
        )


class _Exchange:
    """One delivered message, as its handler sees it: the ``responder``.

    Calling it sends the reply back across the wire; :meth:`after` hangs
    a process-less handler's next step on a charge.
    :meth:`Transport._deliver` is the one place it is built (filled in
    place).
    """

    __slots__ = ("transport", "datagram", "dst_host", "waiter", "replied")

    transport: Transport
    datagram: Datagram
    dst_host: Host
    waiter: typing.Optional[Event]
    replied: bool

    def __init__(self, *_args: object, **_kwargs: object):
        raise TypeError("an _Exchange is built by Transport._deliver")

    def __call__(self, payload: object, size_bytes: int = 0) -> None:
        """Send the reply back across the wire to the requester."""
        if self.waiter is None:
            return
        if self.replied:
            raise RuntimeError("service replied twice to one request")
        self.replied = True
        transport = self.transport
        # The reply draws the same loss decision its request did: a
        # datagram's may be lost, a stream's only severed by a partition.
        # Either way the requester's deadline is what notices.
        dropped, delay = transport.internet.hop(
            self.dst_host.address,
            self.datagram.source.address,
            size_bytes,
            transport.lossy,
        )
        if dropped:
            env = transport.env
            if env.trace.enabled:
                env.trace.emit("net", f"reply dropped on wire: {self.datagram}")
            return
        transport.env.call_later(delay, self._reply_arrives, payload)

    def after(self, event: Event, step: typing.Callable, *args: object) -> None:
        """Run ``step(*args)`` once ``event`` (a charge) is over — at the
        instant a generator handler yielding it would resume."""
        callbacks = event.callbacks
        if callbacks is None:
            self._step(step, args)
        else:
            callbacks.append(functools.partial(self._step, step, args))

    def _step(
        self, step: typing.Callable, args: typing.Tuple, _event: object = None
    ) -> None:
        try:
            step(*args)
        except Exception as exc:  # noqa: BLE001 - a requester's to hear
            self._step_failed(exc)

    def _step_failed(self, exc: BaseException) -> None:
        """A process-less handler (``handle`` itself, or a step) raised
        ``exc``: carried to a requester as a generator's would be, and
        the simulation's otherwise — a broadcast's or a one-way
        message's handler has nobody to tell."""
        if isinstance(self.waiter, _Call):
            self.fail(exc)
        else:
            raise exc

    def run_handler(self, handler: typing.Generator) -> typing.Generator:
        try:
            yield from handler
        except BaseException as exc:  # noqa: BLE001 - carried to caller
            self.fail(exc)

    def fail(self, exc: BaseException) -> None:
        """The handler raised ``exc``: whoever still waits for this
        message's answer gets it as :class:`RemoteCallError` (a
        broadcast's collector drops it).  With nobody waiting, or once
        the reply has left, it raises — from ``env.run()``, as any
        unhandled failure does."""
        if self._awaited():
            self.waiter.fail(RemoteCallError(exc))  # type: ignore[union-attr]
        elif self.waiter is None or self.replied:
            raise exc

    def _awaited(self) -> bool:
        """Is this message's answer still wanted?  A call wants only its
        current attempt's."""
        waiter = self.waiter
        if waiter is None or waiter._value is not _PENDING:
            return False
        return (
            not isinstance(waiter, _Call)
            or waiter.datagram.msg_id == self.datagram.msg_id  # type: ignore[union-attr]
        )

    def _reply_arrives(self, trip: Event) -> None:
        transport = self.transport
        address = self.datagram.source.address
        src = transport._hosts_by_address.get(getattr(address, "dotted", address))
        if src is None or not src.is_up:
            transport.env.trace.emit("net", "reply lost: requester down")
            return
        if self._awaited():
            # The requester resumes inside this reply's own heap entry.
            self.waiter.succeed_now(trip._value)  # type: ignore[union-attr]


class DatagramTransport(Transport):
    """Unreliable datagram delivery with retransmission on request()."""

    lossy = True

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

    @first_use
    def _broadcasts(self) -> "Counter":
        """Bound at the first broadcast, likewise."""
        return self.env.stats.counter(f"net.{self.name}.broadcasts")

    @first_use
    def _retransmits(self) -> "Counter":
        """Bound at the first expired attempt, likewise."""
        return self.env.stats.counter(f"net.{self.name}.retransmits")

    def send(
        self,
        src_host: Host,
        destination: Endpoint,
        payload: object,
        size_bytes: int = 0,
    ) -> typing.Generator:
        if size_bytes < 0:
            raise ValueError(f"negative message size: {size_bytes}")
        if not src_host.is_up:
            raise HostDown(f"source host {src_host.name} is down")
        datagram = Datagram(
            src_host.ephemeral_endpoint(),
            destination,
            payload,
            size_bytes,
            None,
            self.internet.next_msg_id(),
        )
        segment_drop, delay = self.internet.hop(
            src_host.address, destination.address, size_bytes
        )
        yield self.env.timeout(delay)
        if segment_drop:
            self.env.trace.emit("net", f"dropped on wire: {datagram}")
            return
        self._deliver(datagram, None)

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

        Each target gets its own delay draw and datagram, in
        ``segment.hosts`` order; a run of consecutive targets whose
        delays are equal lands as one timed callback, which checks the
        drop rule and delivers each in turn.  That is exact: their
        entries would have held consecutive eids at one instant, and
        nothing sorts between those.  So a constant-latency segment
        lands a broadcast as one heap entry, a jittered one as one per
        target, and a perturbed run (``env.perturb_seed`` set) keeps one
        per target so its shuffle reaches every arrival.  ``step()`` and
        ``run(until=event)`` stop at arrival-instant granularity: a
        run's deliveries all happen before either returns, and a handler
        fault that surfaces from ``run()`` leaves the rest of its run
        undelivered.
        """
        if size_bytes < 0:
            raise ValueError(f"negative message size: {size_bytes}")
        if not src_host.is_up:
            raise HostDown(f"source host {src_host.name} is down")
        env = self.env
        src_address = src_host.address
        # Every target is on the source's own segment: that is the route.
        segment = self.internet.segment_of(src_address)
        would_drop = segment.would_drop
        deliver = self._deliver
        replies: typing.List[object] = []
        first = env.event()

        def arrive(trip):
            for datagram in trip._value:
                # A segment with no partition and no loss drops nothing,
                # so its drop rule is asked only when it could say yes
                # (as :meth:`Internetwork.hop` asks it), at the arrival.
                if (
                    segment._partition_of or segment.drop_probability != 0.0
                ) and would_drop(src_address, datagram.destination.address):
                    continue
                collector = _new(Event)
                collector.env = env
                collector.callbacks = [collect]
                collector._value = _PENDING
                collector._exception = None
                collector._defused = False
                deliver(datagram, collector)

        def collect(event):
            if not event.ok:
                event.defuse()
                return
            replies.append(event._value)
            if not first.triggered:
                first.succeed_now(event._value)

        # Each target's delay drawn now and its drop checked when it
        # lands; a same-delay run shares one timed callback, filled
        # after it is armed (it runs later).
        ephemeral_endpoint = src_host.ephemeral_endpoint
        next_msg_id = self.internet.next_msg_id
        sample = segment.latency.sample
        jitter = segment._jitter
        call_later = env.call_later
        batched = env.perturb_seed is None
        run: typing.List[Datagram] = []
        run_delay = None
        for target in segment.hosts:
            if target is src_host:
                continue
            datagram = _new(Datagram)
            datagram.source = ephemeral_endpoint()
            datagram.destination = target.endpoint(port)
            datagram.payload = payload
            datagram.size_bytes = size_bytes
            datagram.reply_to = None
            datagram.msg_id = next_msg_id()
            delay = sample(jitter, size_bytes)
            if batched and delay == run_delay:
                run.append(datagram)
            else:
                run = [datagram]
                run_delay = delay
                call_later(delay, arrive, run)
        self._broadcasts.increment()
        if first_only:
            timer = env.timeout(wait_ms)
            yield env.any_of([first, timer])
            return replies[:1]
        yield env.timeout(wait_ms)
        return list(replies)

    def _attempt(self, call: _Call) -> None:
        """Put the call's next attempt on the wire: a fresh message, its
        loss decided now and its landing a timed callback."""
        src_host = call.src_host
        if not src_host.is_up:
            raise HostDown(f"source host {src_host.name} is down")
        destination = call.destination
        internet = self.internet
        call.attempt += 1
        call.datagram = datagram = _new(Datagram)
        datagram.source = call.reply_to
        datagram.destination = destination
        datagram.payload = call.payload
        datagram.size_bytes = size_bytes = call.size_bytes
        datagram.reply_to = call.reply_to
        datagram.msg_id = internet.next_msg_id()
        dropped, delay = internet.hop(src_host.address, destination.address, size_bytes)
        self.env.call_later(delay, self._dropped if dropped else self._landed, call)

    _start = _attempt

    def _landed(self, trip: Event) -> None:
        call: _Call = trip._value  # type: ignore[assignment]
        if call._value is not _PENDING:
            return  # abandoned on the wire
        self._deliver(call.datagram, call)  # type: ignore[arg-type]
        self.env.call_later(call.deadline, self._expired, call)

    def _dropped(self, trip: Event) -> None:
        call: _Call = trip._value  # type: ignore[assignment]
        if call._value is not _PENDING:
            return
        self.env.trace.emit("net", f"dropped on wire: {call.datagram}")
        self.env.call_later(call.deadline, self._expired, call)

    def _expired(self, timer: Event) -> None:
        """An attempt's deadline: retransmit, or fail the call."""
        call: _Call = timer._value  # type: ignore[assignment]
        if call._value is not _PENDING:
            return  # answered (or failed, or abandoned): a dead deadline
        self._retransmits.increment()
        if call.attempt > self.retries:
            call.fail_now(
                TransportTimeout(
                    f"no reply from {call.destination} after attempt {call.attempt}"
                )
            )
            return
        try:
            self._attempt(call)
        except NetworkError as err:  # the source went down meanwhile
            call.fail_now(err)


class StreamTransport(Transport):
    """Reliable, connection-oriented delivery (TCP-like).

    Each exchange pays one extra round trip of connection setup, the
    price of reliability the paper's TCP-based systems paid.
    """

    def __init__(self, internet: "Internetwork", name: str = "tcp"):
        super().__init__(internet, name)

    def _connect_rtt(self, src_host: Host, destination: Endpoint) -> float:
        """Connection setup: one sampled round trip."""
        if not src_host.is_up:
            raise HostDown(f"source host {src_host.name} is down")
        hop = self.internet.hop
        return (
            hop(src_host.address, destination.address, 64, False)[1]
            + hop(src_host.address, destination.address, 64, False)[1]
        )

    def _refusal(self, destination: Endpoint) -> typing.Optional[NetworkError]:
        """The far end's answer to a connect: None, or why not."""
        address = destination.address
        dst_host = self._hosts_by_address.get(getattr(address, "dotted", address))
        if dst_host is None or not dst_host.is_up:
            return HostDown(f"{address} unreachable")
        if dst_host.service_at(destination.port) is None:
            return ConnectionRefused(str(destination))
        return None

    def _died(self, destination: Endpoint) -> typing.Optional[HostDown]:
        """Reliable: the destination was validated at connect time; if it
        crashed between connect and transfer, surface the failure loudly."""
        address = destination.address
        dst_host = self._hosts_by_address.get(getattr(address, "dotted", address))
        if dst_host is None or not dst_host.is_up:
            return HostDown(f"{address} died mid-transfer")
        return None

    def _start(self, call: _Call) -> None:
        self.env.call_later(
            self._connect_rtt(call.src_host, call.destination), self._connected, call
        )

    def _connected(self, trip: Event) -> None:
        call: _Call = trip._value  # type: ignore[assignment]
        if call._value is not _PENDING:
            return  # abandoned while connecting
        refusal = self._refusal(call.destination)
        if refusal is not None:
            call.fail_now(refusal)
            return
        internet = self.internet
        destination = call.destination
        call.datagram = datagram = _new(Datagram)
        datagram.source = call.reply_to
        datagram.destination = destination
        datagram.payload = call.payload
        datagram.size_bytes = size_bytes = call.size_bytes
        datagram.reply_to = call.reply_to
        datagram.msg_id = internet.next_msg_id()
        severed, delay = internet.hop(
            call.src_host.address, destination.address, size_bytes, False
        )
        if severed:
            # A partition formed since the connect: the bytes never
            # arrive, and the call times out as an unanswered one does.
            self.env.call_later(call.deadline, self._expired, call)
            return
        self.env.call_later(delay, self._transferred, call)

    def _transferred(self, trip: Event) -> None:
        call: _Call = trip._value  # type: ignore[assignment]
        if call._value is not _PENDING:
            return
        died = self._died(call.destination)
        if died is not None:
            call.fail_now(died)
            return
        self._deliver(call.datagram, call)  # type: ignore[arg-type]
        self.env.call_later(call.deadline, self._expired, call)

    def _expired(self, timer: Event) -> None:
        call: _Call = timer._value  # type: ignore[assignment]
        if call._value is _PENDING:
            call.fail_now(
                TransportTimeout(
                    f"no reply from {call.destination} within {call.deadline} ms"
                )
            )
