"""Transport semantics: delivery, request/response, failures."""

import pytest

from repro.net import (
    ConnectionRefused,
    DatagramTransport,
    HostDown,
    Internetwork,
    Service,
    StreamTransport,
    TransportTimeout,
)
from repro.net.transport import RemoteCallError
from repro.sim import ConstantLatency, Environment


class EchoService(Service):
    """Replies with the payload, uppercased if it's a string."""

    def __init__(self, work_ms=0.0):
        self.work_ms = work_ms
        self.received = []

    def handle(self, datagram, responder):
        self.received.append(datagram.payload)
        if self.work_ms:
            yield datagram.destination  # placeholder, replaced below
        responder(
            datagram.payload.upper()
            if isinstance(datagram.payload, str)
            else datagram.payload,
            size_bytes=64,
        )
        return
        yield


class SlowEchoService(Service):
    def __init__(self, env, work_ms):
        self.env = env
        self.work_ms = work_ms

    def handle(self, datagram, responder):
        yield self.env.timeout(self.work_ms)
        responder("slow-reply", 32)


class FaultyService(Service):
    def handle(self, datagram, responder):
        raise KeyError("no such record")
        yield  # pragma: no cover


def build_net(env=None, drop=0.0):
    env = env or Environment(seed=42)
    net = Internetwork(env)
    seg = net.add_segment(latency=ConstantLatency(5.0))
    seg.set_loss(drop)
    client = net.add_host("client", seg)
    server = net.add_host("server", seg)
    return env, net, client, server


def test_datagram_request_reply_roundtrip():
    env, net, client, server = build_net()
    svc = EchoService()
    ep = server.bind(9000, svc)
    udp = DatagramTransport(net)

    def caller():
        reply = yield from udp.request(client, ep, "hello", 100)
        return reply, env.now

    p = env.process(caller())
    reply, when = env.run(until=p)
    assert reply == "HELLO"
    assert svc.received == ["hello"]
    assert when == 10.0  # 5 ms each way


def test_datagram_to_unbound_port_times_out():
    env, net, client, server = build_net()
    udp = DatagramTransport(net, retries=1, retry_timeout_ms=50)

    def caller():
        from repro.net import Endpoint

        with pytest.raises(TransportTimeout):
            yield from udp.request(client, Endpoint(server.address, 1234), "x")
        return env.now

    p = env.process(caller())
    # 2 attempts x 50 ms timeout, plus wire delays
    assert env.run(until=p) >= 100.0
    assert env.stats.counters().get("net.udp.retransmits") == 2


def test_datagram_to_down_host_times_out_silently():
    env, net, client, server = build_net()
    ep = server.bind(9000, EchoService())
    server.crash()
    udp = DatagramTransport(net, retries=0, retry_timeout_ms=30)

    def caller():
        with pytest.raises(TransportTimeout):
            yield from udp.request(client, ep, "x")
        return "done"

    p = env.process(caller())
    assert env.run(until=p) == "done"


def test_datagram_retransmit_succeeds_after_restart():
    env, net, client, server = build_net()
    ep = server.bind(9000, EchoService())
    server.crash()
    udp = DatagramTransport(net, retries=3, retry_timeout_ms=40)

    def resurrect():
        yield env.timeout(60)
        server.restart()

    def caller():
        reply = yield from udp.request(client, ep, "back")
        return reply

    env.process(resurrect())
    p = env.process(caller())
    assert env.run(until=p) == "BACK"


def test_datagram_loss_is_retried():
    # With 40% loss the 3-retry default should still usually succeed.
    env, net, client, server = build_net(drop=0.4)
    ep = server.bind(9000, EchoService())
    udp = DatagramTransport(net, retries=8, retry_timeout_ms=30)

    def caller():
        return (yield from udp.request(client, ep, "lossy"))

    p = env.process(caller())
    assert env.run(until=p) == "LOSSY"


def test_stream_request_reply_roundtrip():
    env, net, client, server = build_net()
    ep = server.bind(9000, EchoService())
    tcp = StreamTransport(net)

    def caller():
        reply = yield from tcp.request(client, ep, "hi", 50)
        return reply, env.now

    p = env.process(caller())
    reply, when = env.run(until=p)
    assert reply == "HI"
    # connect RTT (10) + request (5) + reply (5)
    assert when == 20.0


def test_stream_to_down_host_raises_hostdown():
    env, net, client, server = build_net()
    ep = server.bind(9000, EchoService())
    server.crash()
    tcp = StreamTransport(net)

    def caller():
        with pytest.raises(HostDown):
            yield from tcp.request(client, ep, "x")
        return "done"

    p = env.process(caller())
    assert env.run(until=p) == "done"


def test_stream_to_unbound_port_refused():
    env, net, client, server = build_net()
    tcp = StreamTransport(net)

    def caller():
        from repro.net import Endpoint

        with pytest.raises(ConnectionRefused):
            yield from tcp.request(client, Endpoint(server.address, 77), "x")
        return "done"

    p = env.process(caller())
    assert env.run(until=p) == "done"


def test_remote_exception_carried_to_caller():
    env, net, client, server = build_net()
    ep = server.bind(9000, FaultyService())
    tcp = StreamTransport(net)

    def caller():
        try:
            yield from tcp.request(client, ep, "x")
        except RemoteCallError as err:
            return type(err.remote_exception).__name__
        return "no-error"

    p = env.process(caller())
    assert env.run(until=p) == "KeyError"


def test_slow_service_delays_reply():
    env, net, client, server = build_net()
    ep = server.bind(9000, SlowEchoService(env, work_ms=100))
    tcp = StreamTransport(net)

    def caller():
        reply = yield from tcp.request(client, ep, "x")
        return reply, env.now

    p = env.process(caller())
    reply, when = env.run(until=p)
    assert reply == "slow-reply"
    assert when == 120.0  # 10 connect + 5 + 100 work + 5


def test_stream_timeout_on_very_slow_service():
    env, net, client, server = build_net()
    ep = server.bind(9000, SlowEchoService(env, work_ms=10_000))
    tcp = StreamTransport(net)

    def caller():
        with pytest.raises(TransportTimeout):
            yield from tcp.request(client, ep, "x", timeout_ms=200)
        return env.now

    p = env.process(caller())
    assert env.run(until=p) == pytest.approx(215.0)
    # Let the slow service finish; its late reply must be ignored quietly.
    env.run()


def test_oneway_send_delivers_without_reply():
    env, net, client, server = build_net()
    svc = EchoService()
    ep = server.bind(9000, svc)
    udp = DatagramTransport(net)

    def caller():
        yield from udp.send(client, ep, "fire-and-forget", 10)

    env.process(caller())
    env.run()
    assert svc.received == ["fire-and-forget"]


def test_send_from_down_host_rejected():
    env, net, client, server = build_net()
    ep = server.bind(9000, EchoService())
    client.crash()
    udp = DatagramTransport(net)

    def caller():
        with pytest.raises(HostDown):
            yield from udp.send(client, ep, "x")
        return "done"

    p = env.process(caller())
    assert env.run(until=p) == "done"


def test_larger_payload_takes_longer():
    env = Environment(seed=1)
    net = Internetwork(env)
    seg = net.add_segment(latency=ConstantLatency(1.0, per_byte_ms=0.01))
    client = net.add_host("c", seg)
    server = net.add_host("s", seg)
    ep = server.bind(9000, EchoService())
    udp = DatagramTransport(net)

    def timed(sz):
        def caller():
            start = env.now
            yield from udp.request(client, ep, "x", sz)
            return env.now - start

        return env.run(until=env.process(caller()))

    assert timed(1000) > timed(10)
