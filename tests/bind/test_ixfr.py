"""Incremental zone transfer: the journal, the wire, and the refresh."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bind import (
    BindResolver,
    BindServer,
    DomainName,
    ResolverCache,
    ResourceRecord,
    RRType,
    SecondaryBindServer,
    Zone,
)
from repro.bind.zone import ZoneDelta
from repro.harness.calibration import DEFAULT_CALIBRATION
from repro.net import DatagramTransport, Internetwork
from repro.resolution import PolicySet, ReplicaPolicy
from repro.sim import ConstantLatency, Environment

CAL = DEFAULT_CALIBRATION


def rec(name, text, ttl=10_000):
    return ResourceRecord.text_record(name, text, rtype=RRType.UNSPEC, ttl=ttl)


def run(env, gen):
    return env.run(until=env.process(gen))


# ----------------------------------------------------------------------
# The zone journal
# ----------------------------------------------------------------------
def test_journal_records_each_update():
    zone = Zone("hns")
    zone.add(rec("a.ctx.hns", "ns=one"))       # serial 2
    zone.add(rec("b.ctx.hns", "ns=two"))       # serial 3
    zone.remove("a.ctx.hns", RRType.UNSPEC)    # serial 4
    deltas = zone.delta_since(1)
    assert deltas is not None
    assert [d.serial for d in deltas] == [2, 3, 4]
    assert deltas[0].records[0].text == "ns=one"
    assert deltas[2].records == ()  # deletion: empty record set


def test_delta_since_current_serial_is_empty():
    zone = Zone("hns")
    zone.add(rec("a.ctx.hns", "ns=one"))
    assert zone.delta_since(zone.serial) == []
    assert zone.delta_since(zone.serial + 5) == []


def test_delta_since_partial():
    zone = Zone("hns")
    zone.add(rec("a.ctx.hns", "ns=one"))   # 2
    zone.add(rec("b.ctx.hns", "ns=two"))   # 3
    deltas = zone.delta_since(2)
    assert [d.serial for d in deltas] == [3]


def test_delta_since_truncated_journal_returns_none():
    zone = Zone("hns", journal_limit=2)
    for i in range(5):
        zone.add(rec(f"x{i}.ctx.hns", f"ns=x{i}"))
    # Journal only holds serials 5 and 6; serial 2 is unreachable.
    assert zone.delta_since(2) is None
    assert zone.delta_since(4) is not None


def test_delta_since_predating_journal_returns_none():
    zone = Zone("hns")
    zone.add(rec("a.ctx.hns", "ns=one"))
    # A requester at serial 0 never saw the initial empty zone: the
    # journal starts at serial 2, so coverage of 0 is impossible.
    assert zone.delta_since(0) is None


def test_apply_delta_tracks_primary():
    primary = Zone("hns")
    replica = Zone("hns")
    primary.add(rec("a.ctx.hns", "ns=one"))
    primary.replace(
        "a.ctx.hns", RRType.UNSPEC, [rec("a.ctx.hns", "ns=NEW")]
    )
    for delta in primary.delta_since(1):
        replica.apply_delta(delta)
    assert replica.serial == primary.serial
    assert replica.all_records() == primary.all_records()
    # The replica re-journals the applied deltas, so it can serve IXFR
    # to a downstream requester at an intermediate serial.
    assert replica.delta_since(2) is not None


def scanned_delta_since(zone, serial):
    """``delta_since`` as a scan of the whole journal: the reference."""
    if serial >= zone.serial:
        return []
    journal = zone._journal
    if not journal or journal[0].serial > serial + 1:
        return None
    return [d for d in journal if d.serial > serial]


_NAMES = [f"n{i}.ctx.hns" for i in range(4)]
_ZONE_OPS = st.one_of(
    st.tuples(st.just("add"), st.sampled_from(_NAMES), st.integers(0, 2)),
    st.tuples(st.just("replace"), st.sampled_from(_NAMES), st.integers(0, 2)),
    st.tuples(st.just("remove"), st.sampled_from(_NAMES), st.just(0)),
    # a replica's step: its primary's next entry, one or more bumps on
    st.tuples(st.just("apply"), st.sampled_from(_NAMES), st.integers(1, 3)),
    st.tuples(st.just("reset"), st.just(""), st.just(0)),
)


@settings(max_examples=150, deadline=None)
@given(
    journal_limit=st.integers(0, 6),
    ops=st.lists(_ZONE_OPS, max_size=30),
)
def test_delta_since_equals_a_scan_of_the_journal(journal_limit, ops):
    zone = Zone("hns", journal_limit=journal_limit)
    for op, name, n in ops:
        if op == "add":
            zone.add(rec(name, f"v{n}"))
        elif op == "replace":
            zone.replace(name, RRType.UNSPEC, [rec(name, f"r{i}") for i in range(n)])
        elif op == "remove":
            zone.remove(name, RRType.UNSPEC)
        elif op == "apply":
            records = (rec(name, f"d{zone.serial}"),) if n % 2 else ()
            zone.apply_delta(
                ZoneDelta(zone.serial + n, DomainName(name), RRType.UNSPEC, records)
            )
        else:
            zone.reset_journal()
        serials = [d.serial for d in zone._journal]
        assert serials == sorted(serials)
        for serial in range(-1, zone.serial + 2):
            assert zone.delta_since(serial) == scanned_delta_since(zone, serial)


# ----------------------------------------------------------------------
# Client/server IXFR exchange
# ----------------------------------------------------------------------
@pytest.fixture
def wired():
    env = Environment(seed=71)
    net = Internetwork(env)
    seg = net.add_segment(
        latency=ConstantLatency(CAL.wire_base_ms, CAL.wire_per_byte_ms)
    )
    client = net.add_host("client", seg)
    server_host = net.add_host("ns", seg)
    zone = Zone("hns")
    zone.add(rec("a.ctx.hns", "ns=one"))
    server = BindServer(
        server_host, zones=[zone], allow_dynamic_update=True, lookup_cost_ms=4.8
    )
    endpoint = server.listen()
    udp = DatagramTransport(net, retries=0, retry_timeout_ms=100)
    resolver = BindResolver(client, udp, endpoint)
    return env, zone, server, resolver, udp, client, endpoint


def test_ixfr_exchange_returns_delta(wired):
    env, zone, server, resolver, udp, client, endpoint = wired
    synced_at = zone.serial
    zone.add(rec("b.ctx.hns", "ns=two"))
    serial, full, deltas, records = run(
        env, resolver.primary.incremental_zone_transfer("hns", synced_at)
    )
    assert serial == zone.serial
    assert not full
    assert records == []
    assert len(deltas) == 1 and deltas[0].records[0].text == "ns=two"
    assert env.stats.counters()[f"bind.{server.name}.ixfrs"] == 1


def test_ixfr_exchange_falls_back_to_snapshot(wired):
    env, zone, server, resolver, udp, client, endpoint = wired
    serial, full, deltas, records = run(
        env, resolver.primary.incremental_zone_transfer("hns", 0)
    )
    assert full
    assert deltas == []
    assert records == zone.all_records()
    assert env.stats.counters()[f"bind.{server.name}.ixfr_fallbacks"] == 1


def test_ixfr_delta_is_cheaper_than_snapshot(wired):
    """The per-record streaming charge applies to the delta only."""
    env, zone, server, resolver, udp, client, endpoint = wired
    for i in range(50):
        zone.add(rec(f"x{i}.ctx.hns", f"ns=x{i}"))
    synced_at = zone.serial
    zone.add(rec("fresh.ctx.hns", "ns=fresh"))

    start = env.now
    run(env, resolver.primary.incremental_zone_transfer("hns", synced_at))
    delta_ms = env.now - start

    start = env.now
    run(env, resolver.primary.zone_transfer("hns"))
    full_ms = env.now - start
    assert delta_ms < full_ms / 3


# ----------------------------------------------------------------------
# Secondary refresh over IXFR (the satellite coverage)
# ----------------------------------------------------------------------
def make_replicated(journal_limit=512, replica_policy=ReplicaPolicy()):
    env = Environment(seed=72)
    net = Internetwork(env)
    seg = net.add_segment(
        latency=ConstantLatency(CAL.wire_base_ms, CAL.wire_per_byte_ms)
    )
    client = net.add_host("client", seg)
    primary_host = net.add_host("ns-primary", seg)
    secondary_host = net.add_host("ns-secondary", seg)
    zone = Zone("hns", journal_limit=journal_limit)
    zone.add(rec("a.ctx.hns", "ns=one"))
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
        replica_policy=replica_policy,
    )
    secondary.listen()
    return env, zone, primary, secondary, client, udp


def replica_zone(secondary):
    return secondary.zone_named(secondary.zones[0].origin)


def test_refresh_serial_unchanged_no_transfer():
    env, zone, primary, secondary, client, udp = make_replicated()
    run(env, secondary.refresh_once())
    pulled = run(env, secondary.refresh_once())
    counters = env.stats.counters()
    assert pulled == 0
    assert counters[f"bind.{secondary.name}.refresh_skips"] == 1
    # Neither an incremental nor a full transfer happened.
    assert f"bind.{primary.name}.ixfrs" not in counters or (
        counters[f"bind.{primary.name}.ixfrs"] == 1  # the initial sync
    )
    assert counters.get(f"bind.{secondary.name}.ixfrs", 0) == 0


def test_refresh_applies_exact_delta_via_ixfr():
    env, zone, primary, secondary, client, udp = make_replicated()
    run(env, secondary.refresh_once())  # first sync: AXFR-style fallback
    counters = env.stats.counters()
    assert counters[f"bind.{secondary.name}.axfr_fallbacks"] == 1

    zone.add(rec("b.ctx.hns", "ns=two"))
    zone.replace("a.ctx.hns", RRType.UNSPEC, [rec("a.ctx.hns", "ns=NEW")])
    pulled = run(env, secondary.refresh_once())
    counters = env.stats.counters()
    assert pulled == 1
    assert counters[f"bind.{secondary.name}.ixfrs"] == 1
    assert counters[f"bind.{secondary.name}.axfr_fallbacks"] == 1  # unchanged
    # The replica now equals the primary, record for record.
    assert replica_zone(secondary).all_records() == zone.all_records()
    assert secondary.replica_serials[zone.origin] == zone.serial


def test_refresh_falls_back_to_axfr_when_journal_truncated():
    env, zone, primary, secondary, client, udp = make_replicated(journal_limit=2)
    run(env, secondary.refresh_once())
    for i in range(8):  # far beyond the journal window
        zone.add(rec(f"x{i}.ctx.hns", f"ns=x{i}"))
    pulled = run(env, secondary.refresh_once())
    counters = env.stats.counters()
    assert pulled == 1
    assert counters[f"bind.{secondary.name}.axfr_fallbacks"] == 2
    assert counters.get(f"bind.{secondary.name}.ixfrs", 0) == 0
    assert replica_zone(secondary).all_records() == zone.all_records()
    assert secondary.replica_serials[zone.origin] == zone.serial


def test_refresh_without_policy_keeps_axfr():
    env, zone, primary, secondary, client, udp = make_replicated(
        replica_policy=ReplicaPolicy.disabled()
    )
    run(env, secondary.refresh_once())
    zone.add(rec("b.ctx.hns", "ns=two"))
    run(env, secondary.refresh_once())
    counters = env.stats.counters()
    assert counters.get(f"bind.{primary.name}.ixfrs", 0) == 0
    assert counters[f"bind.{primary.name}.xfers"] == 2
    assert replica_zone(secondary).all_records() == zone.all_records()


def test_refresh_cost_tracks_churn_only_with_ixfr():
    """A full AXFR refresh costs the same whether one record changed or
    a hundred; an incremental refresh streams and installs only the
    journal delta, so its steady-state cost is proportional to churn."""

    def refresh_ms(replica_policy, changed):
        env, zone, primary, secondary, client, udp = make_replicated(
            replica_policy=replica_policy
        )
        for i in range(120):
            zone.add(rec(f"x{i}.ctx.hns", f"ns=x{i}"))
        run(env, secondary.refresh_once())  # initial (full) sync
        # Replace, not add: the zone size stays fixed while the journal
        # accumulates exactly ``changed`` deltas.
        for i in range(changed):
            name = f"x{i}.ctx.hns"
            zone.replace(name, RRType.UNSPEC, [rec(name, f"ns=x{i}-r1")])
        start = env.now
        run(env, secondary.refresh_once())
        return env.now - start

    ixfr = {n: refresh_ms(ReplicaPolicy(), n) for n in (1, 25, 100)}
    axfr = {n: refresh_ms(ReplicaPolicy.disabled(), n) for n in (1, 25, 100)}
    # Acceptance: the incremental refresh is far cheaper than a full
    # transfer at low churn and scales with the number of changed
    # records, while AXFR cost is flat (it re-ships the whole zone).
    assert ixfr[1] < axfr[1] / 5.0
    assert ixfr[1] < ixfr[25] < ixfr[100]
    assert max(axfr.values()) < 1.5 * min(axfr.values())


def test_refresh_handles_deletion_via_ixfr():
    env, zone, primary, secondary, client, udp = make_replicated()
    zone.add(rec("b.ctx.hns", "ns=two"))
    run(env, secondary.refresh_once())
    zone.remove("b.ctx.hns", RRType.UNSPEC)
    run(env, secondary.refresh_once())
    assert not replica_zone(secondary).contains("b.ctx.hns", RRType.UNSPEC)
    assert replica_zone(secondary).all_records() == zone.all_records()


# ----------------------------------------------------------------------
# Incremental cache preload
# ----------------------------------------------------------------------
def test_preload_cache_incremental(wired):
    env, zone, server, resolver, udp, client, endpoint = wired
    for i in range(40):
        zone.add(rec(f"x{i}.ctx.hns", f"ns=x{i}"))
    cache = ResolverCache(env, name="preload")
    preloader = BindResolver(
        client,
        udp,
        endpoint,
        cache=cache,
        policies=PolicySet(replica=ReplicaPolicy()),
    )
    start = env.now
    loaded = run(env, preloader.preload_cache("hns"))
    first_ms = env.now - start
    assert loaded == zone.record_count

    # Churn two keys, then re-preload: only the delta travels/installs.
    zone.add(rec("fresh.ctx.hns", "ns=fresh"))
    zone.remove("x0.ctx.hns", RRType.UNSPEC)
    start = env.now
    loaded = run(env, preloader.preload_cache("hns"))
    second_ms = env.now - start
    assert loaded == 1  # the one added record; the deletion carries none
    assert env.stats.counters()[f"bind.{preloader.name}.incremental_preloads"] == 1
    assert second_ms < first_ms / 5

    keys = {entry[0] for entry in cache.entries()}
    assert ("fresh.ctx.hns", RRType.UNSPEC.value) in keys
    assert ("x0.ctx.hns", RRType.UNSPEC.value) not in keys


def test_preload_cache_without_policy_always_full(wired):
    env, zone, server, resolver, udp, client, endpoint = wired
    cache = ResolverCache(env, name="preload")
    preloader = BindResolver(client, udp, endpoint, cache=cache)
    run(env, preloader.preload_cache("hns"))
    zone.add(rec("b.ctx.hns", "ns=two"))
    run(env, preloader.preload_cache("hns"))
    counters = env.stats.counters()
    assert counters[f"bind.{server.name}.xfers"] == 2
    assert counters.get(f"bind.{server.name}.ixfrs", 0) == 0
