"""Incremental zone transfer: the journal, the wire, and the preload."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bind import (
    BindResolver,
    BindServer,
    CacheInstaller,
    DomainName,
    ResolverCache,
    ResourceRecord,
    RRType,
    UpdateMode,
    UpdateOp,
    Zone,
)
from repro.bind.messages import IxfrResponse
from repro.harness.calibration import DEFAULT_CALIBRATION
from repro.net import DatagramTransport, Internetwork
from repro.resolution import PolicySet, ReplicaPolicy, UpdatePolicy
from repro.serial import HandcodedMarshaller
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
        else:
            zone.remove(name, RRType.UNSPEC)
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
# One marshal per (zone, serial range)
# ----------------------------------------------------------------------
@pytest.fixture
def marshals(monkeypatch):
    """Every IXFR answer the server sends, as (reply, bytes, cost), and
    how many codec passes produced them."""
    sent = []
    passes = []
    encode_reply = BindServer._encode_reply
    codec_pass = HandcodedMarshaller._encode

    def spy_reply(self, message, value=None):
        result = encode_reply(self, message, value)
        if isinstance(message, IxfrResponse):
            sent.append((message, message.wire, result[2]))
        return result

    def spy_pass(self, value):
        if self.idl_type is IxfrResponse.idl_type:
            passes.append(value)
        return codec_pass(self, value)

    monkeypatch.setattr(BindServer, "_encode_reply", spy_reply)
    monkeypatch.setattr(HandcodedMarshaller, "_encode", spy_pass)
    return sent, passes


def fresh_marshal(reply):
    """``reply``'s bytes and cost from a marshaller that never saw it."""
    return HandcodedMarshaller(IxfrResponse.idl_type).encode(reply.to_idl())


def pullers(env, udp, endpoint, count):
    """``count`` resolvers, each on its own host, pulling from ``endpoint``."""
    net = udp.internet
    segment = net.segments[0]
    return [
        BindResolver(net.add_host(f"puller{i}", segment), udp, endpoint)
        for i in range(count)
    ]


def test_four_pulls_of_one_range_are_one_codec_pass_and_four_charges(wired, marshals):
    env, zone, server, resolver, udp, client, endpoint = wired
    sent, passes = marshals
    synced_at = zone.serial
    zone.add(rec("b.ctx.hns", "ns=two"))
    zone.add(rec("c.ctx.hns", "ns=three"))
    pulls = [
        env.process(puller.primary.incremental_zone_transfer("hns", synced_at))
        for puller in pullers(env, udp, endpoint, 4)
    ]
    env.run(until=env.all_of(pulls))

    answers = [pull.value for pull in pulls]
    assert all(answer == answers[0] for answer in answers)
    assert [d.serial for d in answers[0][2]] == [synced_at + 1, synced_at + 2]
    assert len(passes) == 1
    assert len(sent) == 4
    (reply, wire, cost), *others = sent
    # every send hands back the one answer, by identity, and pays for it
    assert all(o[1] is wire and o[2] == cost for o in others)
    assert (wire, cost) == fresh_marshal(reply)


def test_a_write_between_two_pulls_is_marshalled_afresh(wired, marshals):
    env, zone, server, resolver, udp, client, endpoint = wired
    sent, passes = marshals
    synced_at = zone.serial
    zone.add(rec("b.ctx.hns", "ns=two"))
    first = run(env, resolver.primary.incremental_zone_transfer("hns", synced_at))
    zone.add(rec("c.ctx.hns", "ns=three"))
    second = run(env, resolver.primary.incremental_zone_transfer("hns", synced_at))

    assert second[0] == first[0] + 1 and len(second[2]) == 2
    assert len(passes) == 2
    for reply, wire, cost in sent:
        assert (wire, cost) == fresh_marshal(reply)
    assert sent[0][1] != sent[1][1]


def write_during_the_walk(server, zone, record):
    """Make the first IXFR walk ``server`` answers race a write: the
    write lands after the walk has read the zone and before its answer
    is sent, as one queued behind it on the server's CPU would."""
    send = server._send_ixfr
    raced = []

    def send_after_a_write(*args):
        if not raced:
            raced.append(zone.serial)
            zone.add(record)
            server._after_write([zone])  # the write's NOTIFY, as an update sends it
        send(*args)

    server._send_ixfr = send_after_a_write
    return raced


def test_a_reply_raced_by_a_write_carries_the_walked_serial(wired, marshals):
    """Two pulls of one range walk the journal at one serial; a write
    that lands before the first answer is sent is not in either answer,
    so both carry the serial the walk ended at, and the zone's slot
    serves them both."""
    env, zone, server, resolver, udp, client, endpoint = wired
    sent, passes = marshals
    synced_at = zone.serial
    zone.add(rec("b.ctx.hns", "ns=two"))
    walked = zone.serial
    write_during_the_walk(server, zone, rec("late.ctx.hns", "ns=late"))
    pulls = [
        env.process(puller.primary.incremental_zone_transfer("hns", synced_at))
        for puller in pullers(env, udp, endpoint, 2)
    ]
    env.run(until=env.all_of(pulls))

    first, second = (pull.value for pull in pulls)
    assert zone.serial == walked + 1
    assert first == second
    assert first[0] == walked
    assert [d.serial for d in first[2]] == [walked]
    assert len(passes) == 1
    for reply, wire, cost in sent:
        assert (wire, cost) == fresh_marshal(reply)


def test_a_follower_pulls_a_write_that_raced_its_walk():
    """A NOTIFY-subscribed cache whose pull was raced by a write ends at
    the primary's serial, holding that write: the reply's serial does
    not claim the write, so its NOTIFY is pulled rather than dropped as
    already seen."""
    env = Environment(seed=73)
    net = Internetwork(env)
    seg = net.add_segment(
        latency=ConstantLatency(CAL.wire_base_ms, CAL.wire_per_byte_ms)
    )
    udp = DatagramTransport(net)
    zone = Zone("hns")
    zone.add(rec("a.ctx.hns", "ns=one"))
    server = BindServer(
        net.add_host("ns", seg),
        zones=[zone],
        allow_dynamic_update=True,
        update_policy=UpdatePolicy(invalidation="notify"),
        transport=udp,
    )
    endpoint = server.listen()
    follower = BindResolver(
        net.add_host("follower", seg), udp, endpoint,
        cache=ResolverCache(env, name="follower"), name="follower",
    )
    installer = CacheInstaller(follower.primary, follower.cache)
    writer = BindResolver(net.add_host("writer", seg), udp, endpoint)
    run(env, installer.subscribe_notify("hns"))
    raced = write_during_the_walk(server, zone, rec("late.ctx.hns", "ns=late"))
    op = UpdateOp(
        UpdateMode.REPLACE,
        DomainName("b.ctx.hns"),
        RRType.UNSPEC,
        records=(rec("b.ctx.hns", "ns=two"),),
    )
    run(env, writer.primary.update_batch([op]))
    env.run(until=env.now + 2_000.0)  # the pushes, the pulls, the installs

    assert raced == [zone.serial - 1]
    assert installer._serials["hns"] == zone.serial
    cached = dict(follower.cache.entries())
    for owner, text in (("b.ctx.hns", "ns=two"), ("late.ctx.hns", "ns=late")):
        entry = cached[(owner, RRType.UNSPEC.value)]
        assert [r.text for r in entry.payload] == [text]


def test_a_delta_and_a_snapshot_never_share_the_slot(wired, marshals):
    env, zone, server, resolver, udp, client, endpoint = wired
    sent, _passes = marshals
    zone.journal_limit = 2
    behind = zone.serial
    for i in range(3):
        zone.add(rec(f"x{i}.ctx.hns", f"ns=x{i}"))
    recent = zone.serial - 1
    pulls = (behind, recent, recent - 1, behind, recent)
    answers = [
        run(env, resolver.primary.incremental_zone_transfer("hns", synced_at))
        for synced_at in pulls
    ]

    assert [full for _, full, _, _ in answers] == [True, False, False, True, False]
    for synced_at, (serial, full, deltas, records) in zip(pulls, answers):
        assert serial == zone.serial
        if full:
            assert deltas == [] and records == zone.all_records()
        else:
            assert [d.serial for d in deltas] == list(range(synced_at + 1, serial + 1))
    for reply, wire, cost in sent:
        assert (wire, cost) == fresh_marshal(reply)


def test_the_memo_holds_at_most_one_reply_per_zone(wired):
    env, zone, server, resolver, udp, client, endpoint = wired
    other = Zone("alt")
    other.add(rec("a.alt", "ns=one"))
    server.add_zone(other)
    for step in range(4):
        for origin, target in (("hns", zone), ("alt", other)):
            synced_at = target.serial
            target.add(rec(f"n{step}.{origin}", f"ns={step}"))
            for since in (synced_at, synced_at - 1):
                run(env, resolver.primary.incremental_zone_transfer(origin, since))
            assert len(server._ixfr_replies) <= 2
    assert set(server._ixfr_replies) == {zone.origin, other.origin}


# ----------------------------------------------------------------------
# Cache preload
# ----------------------------------------------------------------------
def test_preload_cache_without_policy_always_full(wired):
    """A re-preload is one more AXFR whatever the replica policy: only a
    NOTIFY pull asks for the journal delta."""
    env, zone, server, resolver, udp, client, endpoint = wired
    for i, replica in enumerate((ReplicaPolicy.disabled(), ReplicaPolicy())):
        cache = ResolverCache(env, name="preload")
        preloader = BindResolver(
            client, udp, endpoint, cache=cache, policies=PolicySet(replica=replica)
        )
        installer = CacheInstaller(preloader.primary, cache)
        run(env, installer.preload("hns"))
        zone.add(rec(f"b{i}.ctx.hns", "ns=two"))
        assert run(env, installer.preload("hns")) == zone.record_count
    counters = env.stats.counters()
    assert counters[f"bind.{server.name}.xfers"] == 4
    assert counters.get(f"bind.{server.name}.ixfrs", 0) == 0
