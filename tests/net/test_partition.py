"""Segment-level partition/heal: the deterministic drop rule."""

import pytest

from repro.net import DatagramTransport, Internetwork, Service
from repro.net.addresses import Endpoint
from repro.net.errors import TransportTimeout
from repro.sim import ConstantLatency, Environment


@pytest.fixture
def world():
    env = Environment(seed=13)
    net = Internetwork(env)
    seg = net.add_segment(latency=ConstantLatency(1.0, 0.0008))
    hosts = [net.add_host(f"h{i}", seg) for i in range(4)]
    udp = DatagramTransport(net, retries=0, retry_timeout_ms=50.0)
    return env, seg, hosts, udp


class Echo(Service):
    def __init__(self):
        self.seen = 0

    def handle(self, datagram, responder):
        self.seen += 1
        responder("echo", 8)
        return
        yield


def run(env, gen):
    return env.run(until=env.process(gen))


def test_partition_requires_two_groups(world):
    env, seg, hosts, udp = world
    with pytest.raises(ValueError):
        seg.partition(hosts)


def test_partition_rejects_double_assignment(world):
    env, seg, hosts, udp = world
    with pytest.raises(ValueError):
        seg.partition(hosts[:2], hosts[1:])


def test_rule_fires_only_across_sides(world):
    env, seg, hosts, udp = world
    seg.partition(hosts[:2], hosts[2:])
    assert seg.crosses_partition(hosts[0].address, hosts[2].address)
    assert not seg.crosses_partition(hosts[0].address, hosts[1].address)
    assert seg.would_drop(hosts[0].address, hosts[3].address)
    assert not seg.would_drop(hosts[2].address, hosts[3].address)
    assert env.stats.counters().get("net.partition.drops", 0) == 1


def test_unassigned_hosts_keep_full_connectivity(world):
    env, seg, hosts, udp = world
    seg.partition(hosts[:1], hosts[1:2])  # h2, h3 in no group
    assert not seg.crosses_partition(hosts[0].address, hosts[2].address)
    assert not seg.crosses_partition(hosts[2].address, hosts[3].address)


def test_heal_restores_the_segment(world):
    env, seg, hosts, udp = world
    seg.partition(hosts[:2], hosts[2:])
    seg.heal()
    assert not seg.would_drop(hosts[0].address, hosts[2].address)


def test_requests_across_the_split_time_out(world):
    env, seg, hosts, udp = world
    echo = Echo()
    hosts[2].bind(5000, echo)
    seg.partition(hosts[:2], hosts[2:])

    def ask():
        return (yield udp.request(hosts[0], Endpoint(hosts[2].address, 5000), "hi", 8))

    with pytest.raises(TransportTimeout):
        run(env, ask())
    assert echo.seen == 0
    seg.heal()
    reply = run(env, ask())
    assert reply == "echo" and echo.seen == 1


def test_broadcast_stops_at_the_split(world):
    env, seg, hosts, udp = world
    same, far = Echo(), Echo()
    hosts[1].bind(5000, same)
    hosts[2].bind(5000, far)
    seg.partition(hosts[:2], hosts[2:])
    replies = run(env, udp.broadcast(hosts[0], 5000, "ping", 8, wait_ms=50.0))
    assert len(replies) == 1  # only the same-side listener
    assert same.seen == 1 and far.seen == 0
