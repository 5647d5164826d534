"""What one exchange costs the kernel, pinned.

A wire trip, a charge and a reply are heap entries; the call event the
requester yields, starting a handler and finishing a process nobody
waits on are not.  A request starts no process of its own, and a
handler that returns ``None`` none either — same entries, same instants.
Counts are ``env.kernel_counters()`` deltas taken outside the run, with
the queue drained on both sides.  An exchange's Python calls are the
``exchange/*`` rows of ``COSTS`` (``tests/test_costs.py``).
"""

import functools

import pytest

from repro.bind import BindServer, ResourceRecord, RRType, Zone
from repro.bind.messages import QueryRequest, XferRequest
from repro.bind.names import DomainName
from repro.clearinghouse import (
    AuthenticationFailed,
    CHName,
    ClearinghouseServer,
    Credentials,
    NoSuchObject,
)
from repro.clearinghouse.server import (
    RETRIEVE_RESPONSE_IDL,
    SIMPLE_RESPONSE_IDL,
    RetrieveItem,
)
from repro.harness.calibration import DEFAULT_CALIBRATION as CAL
from repro.hrpc import CourierBinder, Portmapper
from repro.hrpc.courier_binder import LocateReply, LocateService
from repro.hrpc.portmapper import GetPort, PortReply
from repro.net import DatagramTransport, Internetwork, Service, StreamTransport
from repro.net.transport import RemoteCallError
from repro.serial import CourierRepresentation, HandcodedMarshaller
from repro.sim import ConstantLatency, Environment, Interrupt
from tests.cost import PROBES, probe, watch_processes, window

WIRE_MS = 2.0


class ChargingEcho(Service):
    """Makes ``charges`` CPU charges on its host, then answers (or not)."""

    def __init__(self, host, charges, answers=True, slow_first_ms=0.0):
        self.host = host
        self.charges = charges
        self.answers = answers
        self.slow_first_ms = slow_first_ms
        self.handled = 0

    def handle(self, datagram, responder):
        self.handled += 1
        if self.handled == 1 and self.slow_first_ms:
            yield self.host.env.timeout(self.slow_first_ms)
        for _ in range(self.charges):
            yield self.host.cpu.compute(0.25)
        if self.answers:
            responder((self.host.name, datagram.payload), 32)


class ChargingResponder(Service):
    """``ChargingEcho`` without a process: each step hung on the charge
    before it with ``responder.after``, then the answer (or ``fault``)."""

    def __init__(self, host, charges, fault=None):
        self.host = host
        self.charges = charges
        self.fault = fault
        self.handled = 0

    def handle(self, datagram, responder):
        self.handled += 1
        self._charge(self.charges, datagram.payload, responder)

    def _charge(self, left, payload, responder):
        if left:
            responder.after(
                self.host.cpu.compute(0.25), self._charge, left - 1, payload, responder
            )
            return
        if self.fault is not None:
            raise self.fault
        responder((self.host.name, payload), 32)


class ChargingSink(Service):
    """The process-less form: ``charges`` chained CPU charges, each
    hung on the one before, and ``handle`` returns ``None``."""

    def __init__(self, host, charges, fault=None):
        self.host = host
        self.charges = charges
        self.fault = fault
        self.absorbed = 0

    def handle(self, datagram, responder):
        self._charge(self.charges)

    def _charge(self, left, _charge=None):
        if left:
            self.host.cpu.compute(0.25).callbacks.append(
                functools.partial(self._charge, left - 1)
            )
            return
        if self.fault is not None:
            raise self.fault
        self.absorbed += 1


class World:
    def __init__(self, hosts=2):
        self.env = Environment(seed=5)
        self.net = Internetwork(self.env)
        segment = self.net.add_segment(latency=ConstantLatency(WIRE_MS))
        self.hosts = [self.net.add_host(f"h{i}", segment) for i in range(hosts)]
        self.udp = DatagramTransport(self.net)
        self.tcp = StreamTransport(self.net)
        self.started = watch_processes(self.env)

    def cost(self, generator):
        """(result, heap entries processed, processes started) of one
        driver running ``generator`` to the end of the simulation."""
        env = self.env
        env.run()
        before = env.kernel_counters()["sim.kernel.events_processed"]
        self.started.clear()
        driver = env.process(generator, name="driver")
        env.run()
        spent = env.kernel_counters()["sim.kernel.events_processed"] - before
        # less the driver's own start event (nobody waits on its exit)
        return driver.value, spent - 1, self.started[1:]

    def exchange(self, transport, endpoint, payload):
        """(reply or the exception it raised, ms it took, heap entries,
        processes started) of one request from host 0."""
        env = self.env

        def ask():
            start = env.now
            try:
                reply = yield transport.request(self.hosts[0], endpoint, payload, 64)
            except Exception as err:  # noqa: BLE001 - what the caller saw
                reply = err
            return reply, env.now - start

        (reply, elapsed), entries, started = self.cost(ask())
        return reply, elapsed, entries, started


def ask(transport, client, endpoint):
    return (yield transport.request(client, endpoint, "q", 64))


@pytest.mark.parametrize("charges", [0, 1, 3])
def test_udp_request_is_three_entries_plus_the_handlers_charges(charges):
    world = World()
    client, server = world.hosts
    endpoint = server.bind(9000, ChargingEcho(server, charges))
    reply, entries, started = world.cost(ask(world.udp, client, endpoint))
    assert reply == ("h1", "q")
    # wire Timeout + reply Timeout + deadline Timeout, one per charge
    assert entries == 3 + charges
    assert started == ["udp.handler"]


@pytest.mark.parametrize("charges", [0, 2])
def test_stream_request_pays_exactly_the_connect_round_trip_more(charges):
    world = World()
    client, server = world.hosts
    endpoint = server.bind(9000, ChargingEcho(server, charges))
    reply, entries, started = world.cost(ask(world.tcp, client, endpoint))
    assert reply == ("h1", "q")
    assert entries == 3 + charges + 1
    assert started == ["tcp.handler"]


@pytest.mark.parametrize("transport, connect", [("udp", 0), ("tcp", 1)])
@pytest.mark.parametrize("charges", [0, 1, 3])
def test_a_request_to_a_process_less_server_starts_no_process(
    charges, transport, connect
):
    world = World()
    client, server = world.hosts
    endpoint = server.bind(9000, ChargingResponder(server, charges))
    env = world.env

    def timed():
        reply = yield getattr(world, transport).request(client, endpoint, "q", 64)
        return reply, env.now

    (reply, when), entries, started = world.cost(timed())
    assert reply == ("h1", "q")
    # the generator form's entries and instant, and no process at all
    assert entries == 3 + charges + connect
    assert when == pytest.approx(2 * WIRE_MS * (1 + connect) + 0.25 * charges)
    assert started == []


@pytest.mark.parametrize("charges", [0, 2])
def test_one_way_send_is_the_wire_trip_plus_charges(charges):
    world = World()
    client, server = world.hosts
    service = ChargingEcho(server, charges)  # its answer has nowhere to go
    endpoint = server.bind(9000, service)
    _, entries, started = world.cost(world.udp.send(client, endpoint, "tell", 64))
    assert service.handled == 1
    assert entries == 1 + charges
    assert started == ["udp.handler"]


@pytest.mark.parametrize("answers", [False, True])
@pytest.mark.parametrize("charges", [0, 2])
def test_broadcast_is_one_entry_per_arrival_instant_plus_charges(charges, answers):
    neighbours = 4
    world = World(hosts=neighbours + 1)
    for host in world.hosts[1:]:
        host.bind(4000, ChargingEcho(host, charges, answers))
    replies, entries, started = world.cost(
        world.udp.broadcast(world.hosts[0], 4000, "who", 16, wait_ms=50)
    )
    assert len(replies) == (neighbours if answers else 0)
    # one wire callback (every target lands at one instant); per target
    # its charges (+ reply Timeout); plus the wait.  A wire entry per
    # target read neighbours * (1 + charges + answers) + 1.
    assert entries == 1 + neighbours * (charges + answers) + 1
    assert started == ["udp.handler"] * neighbours


@pytest.mark.parametrize("charges", [0, 1, 2])
def test_broadcast_to_handlers_that_return_none_starts_no_process(charges):
    neighbours = 4
    world = World(hosts=neighbours + 1)
    sinks = [ChargingSink(host, charges) for host in world.hosts[1:]]
    for sink in sinks:
        sink.host.bind(4000, sink)
    replies, entries, started = world.cost(
        world.udp.broadcast(world.hosts[0], 4000, "tell", 16, wait_ms=50)
    )
    assert replies == [] and [sink.absorbed for sink in sinks] == [1] * neighbours
    # one wire callback, per target its charges: the generator form's
    assert entries == 1 + neighbours * charges + 1
    assert started == []


@pytest.mark.parametrize("charges", [0, 1])
def test_a_process_less_handler_that_raises_surfaces_from_run(charges):
    """A generator handler's exception is an answer (``RemoteCallError``
    to whoever waits, defused by a broadcast's collector); with no
    process and no requester there is nobody to carry it, so it is the
    simulation's."""
    world = World(hosts=2)
    sender, listener = world.hosts
    listener.bind(4000, ChargingSink(listener, charges, fault=KeyError("listener bug")))
    world.env.process(world.udp.broadcast(sender, 4000, "tell", 16, wait_ms=50))
    with pytest.raises(KeyError, match="listener bug"):
        world.env.run()


@pytest.mark.parametrize("charges", [0, 2])
def test_a_process_less_request_handler_that_raises_answers_remote_call_error(charges):
    """... but a requester waits: it hears the exception at the instant
    of the step that raised, as from a generator handler, and ``run()``
    does not raise."""
    world = World()
    client, server = world.hosts
    fault = KeyError("server bug")
    endpoint = server.bind(9000, ChargingResponder(server, charges, fault=fault))
    reply, elapsed, entries, started = world.exchange(world.udp, endpoint, "q")
    assert isinstance(reply, RemoteCallError) and reply.remote_exception is fault
    assert elapsed == pytest.approx(WIRE_MS + 0.25 * charges)
    # wire, charges, the failed call, the dead deadline
    assert entries == 1 + charges + 1 + 1
    assert started == []


def test_first_only_broadcast_returns_inside_the_first_reply():
    world = World(hosts=4)
    for host in world.hosts[1:]:
        host.bind(4000, ChargingEcho(host, 0))
    env = world.env

    def locate():
        replies = yield from world.udp.broadcast(
            world.hosts[0], 4000, "who", 16, wait_ms=50, first_only=True
        )
        return replies, env.now

    (replies, when), entries, _ = world.cost(locate())
    assert replies == [("h1", "who")] and when == 4.0
    # one wire callback, three replies, the wait (3 * 2 + 1 with a wire
    # entry per target)
    assert entries == 1 + 3 + 1


def test_retransmit_pays_the_attempt_again_and_ignores_the_late_reply():
    world = World()
    client, server = world.hosts
    # The first delivery sits 30 ms before it answers; the client gives
    # up after 10 and retransmits, so the first reply lands on an
    # abandoned attempt, after the second attempt's has been returned.
    service = ChargingEcho(server, 1, slow_first_ms=30.0)
    endpoint = server.bind(9000, service)
    udp = DatagramTransport(world.net, retries=2, retry_timeout_ms=10.0)
    env = world.env

    def call():
        reply = yield udp.request(client, endpoint, "q", 64)
        return reply, env.now

    (reply, when), entries, started = world.cost(call())
    assert reply == ("h1", "q")
    assert service.handled == 2
    # attempt 2: sent at 12, delivered 14, charged to 14.25, reply at 16.25
    assert when == pytest.approx(16.25)
    # two full attempts (3 + 1 charge each) and the first one's 30 ms nap
    assert entries == 2 * (3 + 1) + 1
    assert started == ["udp.handler", "udp.handler"]
    assert env.stats.counter("net.udp.retransmits").value == 1


def _exchange(transport):
    """One request/response to a process-less server that answers at
    once, per exchange.  ``request`` fills the call, its reply endpoint
    and each attempt's datagram in place (no ``_Call``, ``Endpoint`` or
    ``Datagram`` constructor frame, no ``__post_init__``), and each hop
    is one ``Internetwork.hop``: its loss decision and delay, the route
    resolved once (no ``segment_would_drop``, ``path_delay`` or
    ``_route`` frames); a host's ``is_up`` is an attribute and the
    delivery and the reply read the address table directly (no
    ``host_at``); the rest is the kernel's and the handler's.  A TCP
    exchange adds the connect's two hops and its checks."""
    world = World()
    client, server = world.hosts
    endpoint = server.bind(9000, ChargingResponder(server, 0))
    request = getattr(world, transport).request
    return window(world.env, lambda: request(client, endpoint, "q", 64), 200)


for _transport in ("udp", "tcp"):
    probe(f"exchange/{_transport}")(functools.partial(_exchange, _transport))


@pytest.mark.parametrize("transport", ["udp", "tcp"])
def test_an_exchange_host_budget(transport):
    """An exchange with a process-less server starts no process: its
    Python calls and heap entries are the ``COSTS`` row."""
    assert PROBES[f"exchange/{transport}"]().started == []


def test_yield_from_a_call_returns_the_reply():
    world = World()
    client, server = world.hosts
    endpoint = server.bind(9000, ChargingResponder(server, 1))

    def call():
        return (yield from world.udp.request(client, endpoint, "q", 64))

    reply, entries, started = world.cost(call())
    assert reply == ("h1", "q")
    assert entries == 3 + 1 and started == []


@pytest.mark.parametrize(
    "interrupt_at, handled",
    [
        pytest.param(1.0, 0, id="on-the-wire"),
        pytest.param(3.0, 1, id="awaiting-the-reply"),
    ],
)
def test_an_interrupted_requester_abandons_its_call(interrupt_at, handled):
    """As an abandoned request generator did: nothing more is delivered
    for the call, the reply (at 4.25) reaches nobody, it never
    retransmits, and its timeout never surfaces from ``run()``."""
    world = World()
    client, server = world.hosts
    service = ChargingResponder(server, 1)
    endpoint = server.bind(9000, service)
    udp = DatagramTransport(world.net, retries=3, retry_timeout_ms=10.0)
    env = world.env

    def requester():
        try:
            yield udp.request(client, endpoint, "q", 64)
        except Interrupt:
            return "interrupted", env.now
        return "answered", env.now

    target = env.process(requester())

    def interrupter():
        yield env.timeout(interrupt_at)
        target.interrupt()

    env.process(interrupter())
    env.run()
    assert target.value == ("interrupted", interrupt_at)
    assert service.handled == handled
    assert env.stats.counter("net.udp.retransmits").value == 0


# ----------------------------------------------------------------------
# The servers on a cold Import's path answer from their charges.  Each
# instant below is wire + the server's calibrated charges + wire, as it
# was while every handler ran as a process.
# ----------------------------------------------------------------------
def marshal_ms(message):
    """What the BIND server charges to marshal ``message``."""
    return HandcodedMarshaller(message.idl_type).encode(message.to_idl())[1]


def courier_ms(idl, value):
    """What the Clearinghouse charges to marshal a reply."""
    marshaller = HandcodedMarshaller(idl, representation=CourierRepresentation())
    return marshaller.encode(value)[1]


@pytest.fixture
def bind_world():
    world = World()
    zone = Zone("cs.washington.edu")
    zone.add(ResourceRecord.a_record("fiji.cs.washington.edu", "128.95.1.4"))
    zone.add(ResourceRecord.a_record("june.cs.washington.edu", "128.95.1.5"))
    server = BindServer(world.hosts[1], zones=[zone])
    return world, server, server.listen()


def test_bind_query_answers_at_its_calibrated_instant_without_a_process(bind_world):
    world, server, endpoint = bind_world
    reply, elapsed, entries, started = world.exchange(
        world.udp, endpoint, QueryRequest(DomainName("fiji.cs.washington.edu"), RRType.A)
    )
    assert [record.address for record in reply.records] == ["128.95.1.4"]
    assert elapsed == pytest.approx(
        WIRE_MS + CAL.public_bind_lookup_ms + marshal_ms(reply) + WIRE_MS
    )
    assert entries == 3 + 2 and started == []


def test_bind_xfer_answers_at_its_calibrated_instant(bind_world):
    world, server, endpoint = bind_world
    reply, elapsed, entries, started = world.exchange(
        world.udp, endpoint, XferRequest(DomainName("cs.washington.edu"))
    )
    streamed = CAL.xfer_setup_ms + CAL.xfer_per_record_ms * len(reply.records)
    assert len(reply.records) == len(server.zones[0].all_records())
    assert elapsed == pytest.approx(WIRE_MS + streamed + marshal_ms(reply) + WIRE_MS)
    assert entries == 3 + 2 and started == []


def test_a_malformed_bind_query_is_a_remote_call_error_not_a_crash(bind_world):
    """The name is not a ``DomainName``: the database walk fails after
    its charge, and the requester hears it then — ``run()`` does not."""
    world, server, endpoint = bind_world
    reply, elapsed, entries, started = world.exchange(
        world.udp, endpoint, QueryRequest("fiji.cs.washington.edu", RRType.A)
    )
    assert isinstance(reply, RemoteCallError)
    assert isinstance(reply.remote_exception, AttributeError)
    assert elapsed == pytest.approx(WIRE_MS + CAL.public_bind_lookup_ms)
    assert started == []


@pytest.fixture
def ch_world():
    world = World()
    server = ClearinghouseServer(world.hosts[1])
    server.credentials.enroll("hcs", "secret")
    server.database.register(
        CHName.parse("fiji:hcs:uw"), {"address": bytes([128, 95, 1, 4])}
    )
    return world, server, server.listen()


CONNECT_MS = 2 * WIRE_MS
AUTH_MS = CAL.ch_auth_cpu_ms + CAL.ch_auth_disk_ms
DATA_MS = CAL.ch_data_disk_ms + CAL.ch_process_ms


@pytest.mark.parametrize(
    "user, name, status, server_ms, charges",
    [
        pytest.param(
            "hcs",
            "fiji:hcs:uw",
            0,
            AUTH_MS
            + DATA_MS
            + courier_ms(
                RETRIEVE_RESPONSE_IDL, {"status": 0, "value": bytes([128, 95, 1, 4])}
            ),
            5,
            id="retrieve",
        ),
        pytest.param(
            "mallory",
            "fiji:hcs:uw",
            AuthenticationFailed.status,
            AUTH_MS + courier_ms(SIMPLE_RESPONSE_IDL, {"status": 2}),
            3,
            id="authentication-failed",
        ),
        pytest.param(
            "hcs",
            "ghost:hcs:uw",
            NoSuchObject.status,
            AUTH_MS + DATA_MS + courier_ms(SIMPLE_RESPONSE_IDL, {"status": 3}),
            5,
            id="no-such-object",
        ),
    ],
)
def test_clearinghouse_answers_at_its_calibrated_instant_without_a_process(
    ch_world, user, name, status, server_ms, charges
):
    world, server, endpoint = ch_world
    request = RetrieveItem(CHName.parse(name), "address", Credentials(user, "secret"))
    reply, elapsed, entries, started = world.exchange(world.tcp, endpoint, request)
    assert reply.status == status
    assert elapsed == pytest.approx(CONNECT_MS + WIRE_MS + server_ms + WIRE_MS)
    assert entries == 4 + charges and started == []


def test_portmapper_getport_answers_without_a_process():
    world = World()
    portmapper = Portmapper(world.hosts[1])
    endpoint = portmapper.listen()
    portmapper.register_local("nfs", 2049)
    reply, elapsed, entries, started = world.exchange(
        world.udp, endpoint, GetPort("nfs")
    )
    assert reply == PortReply(2049)
    assert elapsed == pytest.approx(WIRE_MS + CAL.portmapper_server_ms + WIRE_MS)
    assert entries == 3 + 1 and started == []


def test_courier_binder_answers_without_a_process():
    world = World()
    binder = CourierBinder(world.hosts[1])
    binder.advertise_local("PrintService", 6001)
    endpoint = binder.listen()
    reply, elapsed, entries, started = world.exchange(
        world.tcp, endpoint, LocateService("PrintService")
    )
    assert reply == LocateReply(6001)
    assert elapsed == pytest.approx(
        CONNECT_MS + WIRE_MS + CAL.courier_binder_server_ms + WIRE_MS
    )
    assert entries == 4 + 1 and started == []
