"""Edge coverage: messages, ethernet, misc net behaviours."""

import pytest

from repro.net import (
    Datagram,
    DatagramTransport,
    Endpoint,
    Ethernet,
    Internetwork,
    NetworkAddress,
    Service,
    StreamTransport,
)
from repro.net import transport
from repro.sim import ConstantLatency, Environment


def test_datagram_validation_and_str():
    a = Endpoint(NetworkAddress("1.2.3.4"), 10)
    b = Endpoint(NetworkAddress("1.2.3.5"), 20)
    d = Datagram(a, b, "payload", 100)
    assert "1.2.3.4:10" in str(d) and "100 bytes" in str(d)
    with pytest.raises(ValueError):
        Datagram(a, b, "x", -1)
    assert d.msg_id == 0  # unstamped: a transport numbers what it sends


@pytest.mark.parametrize(
    "kind, start",
    [
        ("udp", lambda t, a, b: t.request(a, b.endpoint(9000), "x", -1)),
        ("tcp", lambda t, a, b: t.request(a, b.endpoint(9000), "x", -1)),
        ("udp", lambda t, a, b: next(t.send(a, b.endpoint(9000), "x", -1))),
        ("udp", lambda t, a, b: next(t.broadcast(a, 9000, "x", -1))),
    ],
    ids=["udp-request", "tcp-request", "udp-send", "broadcast"],
)
def test_a_negative_message_size_is_refused_before_anything_is_scheduled(
    kind, start
):
    """A datagram is filled in place, so its size is checked where a
    message enters a transport: ``request`` at the call, and ``send``
    and ``broadcast`` (generators a caller runs with ``yield from``) at
    their first step — before any port, message id or heap entry."""
    env = Environment()
    net = Internetwork(env)
    segment = net.add_segment()
    a, b = (net.add_host(f"h{i}", segment) for i in range(2))
    transport = DatagramTransport(net) if kind == "udp" else StreamTransport(net)
    with pytest.raises(ValueError, match="negative message size: -1"):
        start(transport, a, b)
    assert env.kernel_counters()["sim.kernel.events_scheduled"] == 0
    assert a.ephemeral_endpoint().port == 32768
    assert net.next_msg_id() == 1


@pytest.mark.parametrize(
    "build, method",
    [
        (lambda: transport._Call(), "Transport.request"),
        (lambda: transport._Exchange(None, None, None, None), "Transport._deliver"),
    ],
)
def test_an_exchanges_values_are_built_only_by_the_transport(build, method):
    """A call and an exchange are filled in place by the one transport
    method that builds each, so none reaches the wire half-built."""
    with pytest.raises(TypeError, match=method.replace(".", r"\.")):
        build()


def _stamped_ids():
    """The msg ids a fresh world's sends and broadcast stamp, in send order."""
    env = Environment()
    net = Internetwork(env)
    segment = net.add_segment()
    hosts = [net.add_host(f"h{i}", segment) for i in range(3)]
    seen = []

    class Recorder(Service):
        def handle(self, datagram, responder):
            seen.append(datagram.msg_id)

    endpoint = hosts[1].bind(9000, Recorder())
    hosts[2].bind(9000, Recorder())
    udp = DatagramTransport(net)

    def sender():
        yield from udp.send(hosts[0], endpoint, "one-way")
        yield from udp.broadcast(hosts[0], 9000, "all", wait_ms=5.0)

    env.run(until=env.process(sender()))
    return seen


def test_msg_ids_are_per_internetwork_and_monotone():
    first = _stamped_ids()
    assert first == [1, 2, 3]
    # a second world in the same interpreter numbers from 1 again
    assert _stamped_ids() == first


def test_ethernet_attach_detach():
    env = Environment()
    ether = Ethernet(env)
    net = Internetwork(env)
    seg = net.add_segment()
    host = net.add_host("h", seg)
    assert seg.hosts == [host]
    with pytest.raises(ValueError):
        seg.attach(host)  # duplicate address


def test_ethernet_drop_probability_validation():
    env = Environment()
    ether = Ethernet(env)
    for bad in (1.0, -0.1):
        with pytest.raises(ValueError):
            ether.set_loss(bad)
    assert ether.drop_probability == 0.0
    assert not ether.would_drop()
    ether.set_loss(0.25)
    assert ether.drop_probability == 0.25
    ether.set_loss(0.0)
    assert not ether.would_drop()


def test_ethernet_transmit_delay_scales_with_size():
    env = Environment(seed=8)
    ether = Ethernet(env, latency=ConstantLatency(1.0, per_byte_ms=0.001))
    small = Datagram.__new__(Datagram)
    small.size_bytes = 10
    big = Datagram.__new__(Datagram)
    big.size_bytes = 10_000
    assert ether.latency.sample(ether._jitter, big.size_bytes) > ether.latency.sample(
        ether._jitter, small.size_bytes
    )


def test_loss_stream_is_seeded_by_the_wires_name_not_by_its_first_draw():
    """The bound stream and counter are the ones a per-datagram look-up
    found: same draws whenever first asked, no stat until counted."""
    reference = Environment(seed=9).rng.stream("ether-drop:lossy")
    expected = [reference.random() < 0.5 for _ in range(50)]
    env = Environment(seed=9)
    ether = Ethernet(env, name="lossy")
    ether.set_loss(0.5)
    env.rng.stream("ether:lossy").random()  # another stream drawn first
    env.run(until=env.timeout(10.0))
    assert [ether.would_drop() for _ in range(50)] == expected
    assert "net.partition.drops" not in env.stats.counters()
    ether.partition(["1.1.1.1"], ["1.1.1.2"])
    assert ether.would_drop("1.1.1.1", "1.1.1.2")
    assert ether.would_drop("1.1.1.2", "1.1.1.1")
    assert env.stats.counters()["net.partition.drops"] == 2


def test_lossy_ethernet_drops_sometimes():
    env = Environment(seed=9)
    ether = Ethernet(env)
    ether.set_loss(0.5)
    outcomes = {ether.would_drop() for _ in range(100)}
    assert outcomes == {True, False}
