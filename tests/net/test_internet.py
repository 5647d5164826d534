"""Topology construction and routing."""

import pytest

from repro.net import DatagramTransport, Internetwork, NoRouteToHost, Service
from repro.net import internet
from repro.net.addresses import NetworkAddress
from repro.sim import ConstantLatency, Environment


class Sink(Service):
    def __init__(self):
        self.got = []

    def handle(self, datagram, responder):
        self.got.append(datagram.payload)
        responder("ok", 8)
        return
        yield


def test_add_host_auto_creates_segment():
    env = Environment()
    net = Internetwork(env)
    host = net.add_host("alpha")
    assert net.segments
    assert net.segment_of(host.address) is net.segments[0]


def test_duplicate_host_name_rejected():
    env = Environment()
    net = Internetwork(env)
    net.add_host("a")
    with pytest.raises(ValueError):
        net.add_host("a")


def test_hosts_get_distinct_addresses():
    env = Environment()
    net = Internetwork(env)
    hosts = [net.add_host(f"h{i}") for i in range(20)]
    assert len({str(h.address) for h in hosts}) == 20


def test_foreign_segment_rejected():
    env = Environment()
    net1, net2 = Internetwork(env), Internetwork(env)
    seg2 = net2.add_segment()
    with pytest.raises(ValueError):
        net1.add_host("x", segment=seg2)


def test_route_within_segment_has_no_gateway_cost():
    env = Environment()
    net = Internetwork(env)
    seg = net.add_segment(latency=ConstantLatency(2.0))
    a = net.add_host("a", seg)
    b = net.add_host("b", seg)
    assert net.hop(a.address, b.address, 0, lossy=False)[1] == 2.0


def test_route_across_segments_pays_gateway_hop():
    env = Environment()
    net = Internetwork(env)
    seg1 = net.add_segment(latency=ConstantLatency(2.0))
    seg2 = net.add_segment(latency=ConstantLatency(3.0))
    a = net.add_host("a", seg1)
    b = net.add_host("b", seg2)
    assert net.hop(a.address, b.address, 0, lossy=False)[1] == 5.0 + internet.GATEWAY_HOP_MS


def test_no_route_to_unknown_address():
    env = Environment()
    net = Internetwork(env)
    a = net.add_host("a")
    with pytest.raises(NoRouteToHost):
        net.hop(a.address, NetworkAddress("1.2.3.4"), 0)


def test_cross_segment_request_roundtrip(monkeypatch):
    monkeypatch.setattr(internet, "GATEWAY_HOP_MS", 10.0)
    env = Environment(seed=3)
    net = Internetwork(env)
    seg1 = net.add_segment(latency=ConstantLatency(2.0))
    seg2 = net.add_segment(latency=ConstantLatency(2.0))
    client = net.add_host("client", seg1)
    server = net.add_host("server", seg2)
    sink = Sink()
    ep = server.bind(9000, sink)
    udp = DatagramTransport(net)

    def caller():
        reply = yield from udp.request(client, ep, "cross", 0)
        return reply, env.now

    p = env.process(caller())
    reply, when = env.run(until=p)
    assert reply == "ok"
    assert when == 28.0  # (2+2+10) each way
    assert sink.got == ["cross"]

