"""What one exchange costs the kernel, pinned.

A wire trip, a charge and a reply are heap entries; starting the
handler, triggering the reply event, firing the ``AnyOf`` and finishing
a process nobody waits on are not.  A handler that returns ``None``
costs the same entries and no process.  Counts are ``env.kernel_counters()``
deltas taken outside the run, with the queue drained on both sides.
"""

import functools

import pytest

from repro.net import DatagramTransport, Internetwork, Service, StreamTransport
from repro.sim import ConstantLatency, Environment


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
        segment = self.net.add_segment(latency=ConstantLatency(2.0))
        self.hosts = [self.net.add_host(f"h{i}", segment) for i in range(hosts)]
        self.started = []
        start = self.env.process

        def counting_process(generator, name=None, inline=False):
            self.started.append(name)
            return start(generator, name, inline)

        self.env.process = counting_process

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


@pytest.mark.parametrize("charges", [0, 1, 3])
def test_udp_request_is_three_entries_plus_the_handlers_charges(charges):
    world = World()
    client, server = world.hosts
    endpoint = server.bind(9000, ChargingEcho(server, charges))
    udp = DatagramTransport(world.net)
    reply, entries, started = world.cost(udp.request(client, endpoint, "q", 64))
    assert reply == ("h1", "q")
    # wire Timeout + reply Timeout + deadline Timeout, one per charge
    assert entries == 3 + charges
    assert started == ["udp.handler"]


@pytest.mark.parametrize("charges", [0, 2])
def test_stream_request_pays_exactly_the_connect_round_trip_more(charges):
    world = World()
    client, server = world.hosts
    endpoint = server.bind(9000, ChargingEcho(server, charges))
    tcp = StreamTransport(world.net)
    reply, entries, started = world.cost(tcp.request(client, endpoint, "q", 64))
    assert reply == ("h1", "q")
    assert entries == 3 + charges + 1
    assert started == ["tcp.handler"]


@pytest.mark.parametrize("charges", [0, 2])
def test_one_way_send_is_the_wire_trip_plus_charges(charges):
    world = World()
    client, server = world.hosts
    service = ChargingEcho(server, charges)  # its answer has nowhere to go
    endpoint = server.bind(9000, service)
    udp = DatagramTransport(world.net)
    _, entries, started = world.cost(udp.send(client, endpoint, "tell", 64))
    assert service.handled == 1
    assert entries == 1 + charges
    assert started == ["udp.handler"]


@pytest.mark.parametrize("answers", [False, True])
@pytest.mark.parametrize("charges", [0, 2])
def test_broadcast_is_one_entry_per_target_plus_charges_and_replies(charges, answers):
    neighbours = 4
    world = World(hosts=neighbours + 1)
    for host in world.hosts[1:]:
        host.bind(4000, ChargingEcho(host, charges, answers))
    udp = DatagramTransport(world.net)
    replies, entries, started = world.cost(
        udp.broadcast(world.hosts[0], 4000, "who", 16, wait_ms=50)
    )
    assert len(replies) == (neighbours if answers else 0)
    # per target: wire Timeout + charges (+ reply Timeout); plus the wait
    assert entries == neighbours * (1 + charges + answers) + 1
    assert started == ["udp.handler"] * neighbours


@pytest.mark.parametrize("charges", [0, 1, 2])
def test_broadcast_to_handlers_that_return_none_starts_no_process(charges):
    neighbours = 4
    world = World(hosts=neighbours + 1)
    sinks = [ChargingSink(host, charges) for host in world.hosts[1:]]
    for sink in sinks:
        sink.host.bind(4000, sink)
    udp = DatagramTransport(world.net)
    replies, entries, started = world.cost(
        udp.broadcast(world.hosts[0], 4000, "tell", 16, wait_ms=50)
    )
    assert replies == [] and [sink.absorbed for sink in sinks] == [1] * neighbours
    # per target: wire Timeout + charges, exactly the generator form's
    assert entries == neighbours * (1 + charges) + 1
    assert started == []


@pytest.mark.parametrize("charges", [0, 1])
def test_a_process_less_handler_that_raises_surfaces_from_run(charges):
    """A generator handler's exception is an answer (``RemoteCallError``
    to whoever waits, defused by a broadcast's collector); with no
    process there is nobody to carry it, so it is the simulation's."""
    world = World(hosts=2)
    sender, listener = world.hosts
    listener.bind(4000, ChargingSink(listener, charges, fault=KeyError("listener bug")))
    udp = DatagramTransport(world.net)
    world.env.process(udp.broadcast(sender, 4000, "tell", 16, wait_ms=50))
    with pytest.raises(KeyError, match="listener bug"):
        world.env.run()


def test_first_only_broadcast_returns_inside_the_first_reply():
    world = World(hosts=4)
    for host in world.hosts[1:]:
        host.bind(4000, ChargingEcho(host, 0))
    udp = DatagramTransport(world.net)
    env = world.env

    def locate():
        replies = yield from udp.broadcast(
            world.hosts[0], 4000, "who", 16, wait_ms=50, first_only=True
        )
        return replies, env.now

    (replies, when), entries, _ = world.cost(locate())
    assert replies == [("h1", "who")] and when == 4.0
    assert entries == 3 * 2 + 1


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
        reply = yield from udp.request(client, endpoint, "q", 64)
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
