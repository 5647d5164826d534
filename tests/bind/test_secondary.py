"""Primary/secondary replication and resolver failover."""

import pytest

from repro.bind import (
    BindResolver,
    BindServer,
    ResourceRecord,
    RRType,
    SecondaryBindServer,
    UpdateMode,
    UpdateRefused,
    Zone,
)
from repro.harness.calibration import DEFAULT_CALIBRATION
from repro.net import DatagramTransport, Internetwork, TransportTimeout
from repro.sim import ConstantLatency, Environment

CAL = DEFAULT_CALIBRATION


@pytest.fixture
def replicated():
    """Primary with one zone, one secondary, and a client resolver."""
    env = Environment(seed=33)
    net = Internetwork(env)
    seg = net.add_segment(latency=ConstantLatency(CAL.wire_base_ms, CAL.wire_per_byte_ms))
    client = net.add_host("client", seg)
    primary_host = net.add_host("ns-primary", seg)
    secondary_host = net.add_host("ns-secondary", seg)
    zone = Zone("hns")
    zone.add(ResourceRecord.text_record("a.ctx.hns", "ns=one", rtype=RRType.UNSPEC, ttl=10_000))
    primary = BindServer(
        primary_host, zones=[zone], allow_dynamic_update=True, lookup_cost_ms=4.8
    )
    primary_ep = primary.listen()
    udp = DatagramTransport(net, retries=0, retry_timeout_ms=100)
    secondary = SecondaryBindServer(
        secondary_host,
        primary_ep,
        origins=["hns"],
        transport=udp,
        refresh_ms=1_000,
        lookup_cost_ms=4.8,
    )
    secondary_ep = secondary.listen()
    resolver = BindResolver(
        client, udp, primary_ep, secondaries=[secondary_ep]
    )
    return env, net, primary, primary_host, secondary, resolver, udp


def run(env, gen):
    return env.run(until=env.process(gen))


def test_refresh_validation(replicated):
    env, net, primary, primary_host, secondary, resolver, udp = replicated
    with pytest.raises(ValueError):
        SecondaryBindServer(
            secondary.host, primary.endpoint, ["x"], udp, refresh_ms=0
        )


def test_secondary_syncs_on_first_refresh(replicated):
    env, net, primary, primary_host, secondary, resolver, udp = replicated
    assert not secondary.is_synchronized
    pulled = run(env, secondary.refresh_once())
    assert pulled == 1
    assert secondary.is_synchronized
    records = secondary.zone_named(primary.zones[0].origin).lookup(
        "a.ctx.hns", RRType.UNSPEC
    )
    assert records[0].text == "ns=one"


def test_refresh_skips_when_serial_unchanged(replicated):
    env, net, primary, primary_host, secondary, resolver, udp = replicated
    run(env, secondary.refresh_once())
    pulled = run(env, secondary.refresh_once())
    assert pulled == 0
    assert env.stats.counters()[f"bind.{secondary.name}.refresh_skips"] == 1


def test_refresh_pulls_after_primary_update(replicated):
    env, net, primary, primary_host, secondary, resolver, udp = replicated
    run(env, secondary.refresh_once())
    primary.zones[0].add(
        ResourceRecord.text_record("b.ctx.hns", "ns=two", rtype=RRType.UNSPEC, ttl=10_000)
    )
    pulled = run(env, secondary.refresh_once())
    assert pulled == 1
    records = secondary.zone_named(primary.zones[0].origin).lookup(
        "b.ctx.hns", RRType.UNSPEC
    )
    assert records[0].text == "ns=two"


def test_periodic_refresh_loop(replicated):
    env, net, primary, primary_host, secondary, resolver, udp = replicated
    secondary.start_refresh()
    with pytest.raises(RuntimeError):
        secondary.start_refresh()
    env.run(until=100)  # first pass happens immediately
    assert secondary.is_synchronized
    primary.zones[0].add(
        ResourceRecord.text_record("c.ctx.hns", "ns=three", rtype=RRType.UNSPEC, ttl=10_000)
    )
    env.run(until=2_500)  # at least one more refresh period
    assert secondary.zone_named(primary.zones[0].origin).contains(
        "c.ctx.hns", RRType.UNSPEC
    )


def test_secondary_refuses_updates(replicated):
    env, net, primary, primary_host, secondary, resolver, udp = replicated
    client_resolver = BindResolver(
        resolver.host, udp, secondary.endpoint
    )

    def scenario():
        with pytest.raises(UpdateRefused):
            record = ResourceRecord.text_record(
                "x.ctx.hns", "ns=evil", rtype=RRType.UNSPEC
            )
            yield from client_resolver.primary.update(
                UpdateMode.ADD, record.name, record.rtype, [record]
            )
        return "done"

    assert run(env, scenario()) == "done"


def test_failover_to_secondary_when_primary_down(replicated):
    env, net, primary, primary_host, secondary, resolver, udp = replicated
    secondary.start_refresh()
    env.run(until=100)
    primary_host.crash()
    records = run(env, resolver.lookup("a.ctx.hns", RRType.UNSPEC))
    assert records[0].text == "ns=one"
    assert env.stats.counters()["bind.resolver.failovers"] >= 1


def test_no_failover_when_primary_healthy(replicated):
    env, net, primary, primary_host, secondary, resolver, udp = replicated
    run(env, resolver.lookup("a.ctx.hns", RRType.UNSPEC))
    assert "bind.resolver.failovers" not in env.stats.counters()


def test_all_replicas_down_raises(replicated):
    env, net, primary, primary_host, secondary, resolver, udp = replicated
    secondary.start_refresh()
    env.run(until=100)
    primary_host.crash()
    secondary.host.crash()

    def scenario():
        with pytest.raises(TransportTimeout):
            yield from resolver.lookup("a.ctx.hns", RRType.UNSPEC)
        return "done"

    assert run(env, scenario()) == "done"


def test_staleness_window(replicated):
    """An update on the primary is invisible at the secondary until the
    next refresh — the bounded staleness BIND replication accepts."""
    env, net, primary, primary_host, secondary, resolver, udp = replicated
    run(env, secondary.refresh_once())
    primary.zones[0].replace(
        "a.ctx.hns",
        RRType.UNSPEC,
        [ResourceRecord.text_record("a.ctx.hns", "ns=NEW", rtype=RRType.UNSPEC, ttl=10_000)],
    )
    stale = secondary.zone_named(primary.zones[0].origin).lookup(
        "a.ctx.hns", RRType.UNSPEC
    )
    assert stale[0].text == "ns=one"
    run(env, secondary.refresh_once())
    fresh = secondary.zone_named(primary.zones[0].origin).lookup(
        "a.ctx.hns", RRType.UNSPEC
    )
    assert fresh[0].text == "ns=NEW"


def test_refresh_survives_primary_outage(replicated):
    env, net, primary, primary_host, secondary, resolver, udp = replicated
    run(env, secondary.refresh_once())
    primary_host.crash()
    pulled = run(env, secondary.refresh_once())  # fails gracefully
    assert pulled == 0
    assert env.stats.counters()[f"bind.{secondary.name}.refresh_failures"] == 1
    # And the replica still answers.
    assert secondary.zone_named(primary.zones[0].origin).contains(
        "a.ctx.hns", RRType.UNSPEC
    )
    primary_host.restart()
    primary.zones[0].add(ResourceRecord.text_record("d.ctx.hns", "ns=back", rtype=RRType.UNSPEC))
    assert run(env, secondary.refresh_once()) == 1


def test_replicated_metastore_survives_primary_crash():
    """End-to-end: HNS meta lookups keep working through a secondary."""
    from repro.core.metastore import MetaStore
    from repro.workloads import build_testbed

    testbed = build_testbed(seed=34)
    env = testbed.env
    secondary_host = testbed.internet.add_host("meta2")
    secondary = SecondaryBindServer(
        secondary_host,
        testbed.meta_endpoint,
        origins=["hns"],
        transport=testbed.udp,
        refresh_ms=5_000,
        lookup_cost_ms=testbed.calibration.meta_bind_lookup_ms,
    )
    secondary_ep = secondary.listen()
    secondary.start_refresh()
    env.run(until=env.now + 1_000)
    assert secondary.is_synchronized

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
