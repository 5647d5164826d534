"""Resolver failover from the primary to its secondary replicas.

A secondary here is a plain :class:`BindServer` holding a copy of the
primary's zone: the resolver reads through ``[primary] + secondaries``
in order, and only the primary takes writes.
"""

import pytest

from repro.bind import BindResolver, BindServer, ResourceRecord, RRType, Zone
from repro.harness.calibration import DEFAULT_CALIBRATION
from repro.net import DatagramTransport, Internetwork, TransportTimeout
from repro.sim import ConstantLatency, Environment

CAL = DEFAULT_CALIBRATION


def make_zone():
    zone = Zone("hns")
    zone.add(ResourceRecord.text_record("a.ctx.hns", "ns=one", rtype=RRType.UNSPEC, ttl=10_000))
    return zone


@pytest.fixture
def replicated():
    """A primary and one secondary with the same zone, and a client resolver."""
    env = Environment(seed=33)
    net = Internetwork(env)
    seg = net.add_segment(latency=ConstantLatency(CAL.wire_base_ms, CAL.wire_per_byte_ms))
    client = net.add_host("client", seg)
    primary_host = net.add_host("ns-primary", seg)
    secondary_host = net.add_host("ns-secondary", seg)
    primary_ep = BindServer(primary_host, zones=[make_zone()], lookup_cost_ms=4.8).listen()
    secondary_ep = BindServer(secondary_host, zones=[make_zone()], lookup_cost_ms=4.8).listen()
    udp = DatagramTransport(net, retries=0, retry_timeout_ms=100)
    resolver = BindResolver(client, udp, primary_ep, secondaries=[secondary_ep])
    return env, primary_host, secondary_host, resolver


def run(env, gen):
    return env.run(until=env.process(gen))


def test_failover_to_secondary_when_primary_down(replicated):
    env, primary_host, _secondary_host, resolver = replicated
    primary_host.crash()
    records = run(env, resolver.lookup("a.ctx.hns", RRType.UNSPEC))
    assert records[0].text == "ns=one"
    assert env.stats.counters()["bind.resolver.failovers"] >= 1


def test_no_failover_when_primary_healthy(replicated):
    env, _primary_host, _secondary_host, resolver = replicated
    run(env, resolver.lookup("a.ctx.hns", RRType.UNSPEC))
    assert "bind.resolver.failovers" not in env.stats.counters()


def test_all_replicas_down_raises(replicated):
    env, primary_host, secondary_host, resolver = replicated
    primary_host.crash()
    secondary_host.crash()

    def scenario():
        with pytest.raises(TransportTimeout):
            yield from resolver.lookup("a.ctx.hns", RRType.UNSPEC)
        return "done"

    assert run(env, scenario()) == "done"


def test_replicated_metastore_survives_primary_crash():
    """End-to-end: HNS meta lookups keep working through a secondary."""
    from repro.core.metastore import MetaStore
    from repro.workloads import build_testbed

    testbed = build_testbed(seed=34)
    env = testbed.env
    primary_zone = testbed.meta_server.zones[0]
    replica = Zone(primary_zone.origin)
    for record in primary_zone.all_records():
        replica.add(record)
    secondary_ep = BindServer(
        testbed.internet.add_host("meta2"),
        zones=[replica],
        lookup_cost_ms=testbed.calibration.meta_bind_lookup_ms,
    ).listen()

    metastore = MetaStore(
        testbed.client,
        testbed.udp,
        testbed.meta_endpoint,
        calibration=testbed.calibration,
        secondaries=[secondary_ep],
    )
    testbed.meta_host.crash()
    ns = env.run(
        until=env.process(metastore.context_to_name_service("BIND-cs"))
    )
    assert ns == "BIND-cs"
