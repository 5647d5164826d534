"""NOTIFY-pushed installs: background, complete, and never dropped.

A subscribed resolver's host keeps answering cache hits while a pushed
delta is installed: no hit waits behind the install for longer than one
background slice, the changed record sets appear one by one, and the
cache ends up exactly as a foreground preload of the zone leaves it.  A
push that lands during a pull is pulled after it; a failed pull is
counted and the next push pulls again.
"""

import pytest

from repro.bind import (
    BindResolver,
    BindServer,
    CacheInstaller,
    DomainName,
    NameNotFound,
    ResolverCache,
    ResourceRecord,
    RRType,
    UpdateMode,
    UpdateOp,
    Zone,
)
from repro.harness.calibration import DEFAULT_CALIBRATION
from repro.net import DatagramTransport, Internetwork
from repro.resolution import UpdatePolicy
from repro.sim import ConstantLatency, Environment
from repro.sim.resources import BACKGROUND_SLICE_MS

CAL = DEFAULT_CALIBRATION
WAVE = 16
TTL = 3_600_000.0


def owner(i):
    return f"c{i}.ctx.hns"


def rec(i, version):
    return ResourceRecord.text_record(
        owner(i), f"ns=v{version}", rtype=RRType.UNSPEC, ttl=TTL
    )


def run(env, gen):
    return env.run(until=env.process(gen))


def build(journal_limit):
    env = Environment(seed=5)
    net = Internetwork(env)
    segment = net.add_segment(
        latency=ConstantLatency(CAL.wire_base_ms, CAL.wire_per_byte_ms)
    )
    udp = DatagramTransport(net)
    zone = Zone("hns", journal_limit=journal_limit)
    zone.add(
        ResourceRecord.text_record("hot.ctx.hns", "ns=hot", rtype=RRType.UNSPEC, ttl=TTL)
    )
    for i in range(WAVE):
        zone.add(rec(i, 0))
    meta = BindServer(
        net.add_host("ns", segment),
        zones=[zone],
        allow_dynamic_update=True,
        name="meta",
        update_policy=UpdatePolicy(invalidation="notify"),
        transport=udp,
    )
    endpoint = meta.listen(5353)

    def resolver(host_name):
        return BindResolver(
            net.add_host(host_name, segment),
            udp,
            endpoint,
            cache=ResolverCache(env, name=host_name),
            name=host_name,
        )

    return env, meta, resolver("client"), resolver("writer"), resolver("reference")


def installer(resolver):
    return CacheInstaller(resolver.primary, resolver.cache)


def replace(*versions):
    """One update batch setting ``owner(i)`` to version ``v`` per (i, v)."""
    return [
        UpdateOp(
            UpdateMode.REPLACE, DomainName(owner(i)), RRType.UNSPEC, records=(rec(i, v),)
        )
        for i, v in versions
    ]


@pytest.mark.parametrize(
    "journal_limit, fallback",
    [(512, False), (2, True)],
    ids=["ixfr", "axfr_fallback"],
)
def test_pushed_install_never_blocks_cache_hits(journal_limit, fallback):
    env, _meta, subscriber, writer, reference = build(journal_limit)
    run(env, subscriber.lookup("hot.ctx.hns", RRType.UNSPEC))  # warm the hit
    run(env, installer(subscriber).subscribe_notify("hns"))

    waits = []  # each hit's latency
    seen = []  # how many of the wave's new versions were cached at each hit

    def new_versions_cached():
        return sum(
            1
            for _, entry in subscriber.cache.entries()
            if any(r.text == "ns=v1" for r in entry.payload)
        )

    def reader():
        while env.now < 1_000.0:
            asked = env.now
            yield from subscriber.lookup("hot.ctx.hns", RRType.UNSPEC)
            waits.append(env.now - asked)
            seen.append(new_versions_cached())
            yield env.timeout(1.0)

    def write_wave():
        yield env.timeout(20.0)
        yield from writer.primary.update_batch(replace(*((i, 1) for i in range(WAVE))))

    env.process(write_wave())
    run(env, reader())

    counters = env.stats.counters()
    assert counters[f"bind.{subscriber.name}.notify_pulls"] == 1
    assert counters.get("bind.meta.ixfr_fallbacks", 0) == (1 if fallback else 0)

    # The install is WAVE records' worth of CPU (the fallback snapshot
    # carries the whole zone); in the foreground it would have parked
    # that in front of one unlucky hit.
    install_ms = CAL.xfer_install_per_record_ms * WAVE
    assert install_ms > 20 * BACKGROUND_SLICE_MS
    hit_cost = waits[0]  # measured before the write, on an idle CPU
    assert max(waits) <= BACKGROUND_SLICE_MS + hit_cost + 1e-9

    # Record sets became visible one by one, not all at the end.
    assert seen[0] == 0 and seen[-1] == WAVE
    assert len(set(seen)) > WAVE // 2
    assert seen == sorted(seen)

    # Same final cache as the single-charge foreground install.
    run(env, installer(reference).preload("hns"))
    changed = {(owner(i), RRType.UNSPEC.value) for i in range(WAVE)}

    def changed_entries(resolver):
        return {
            key: (entry.payload, entry.record_count)
            for key, entry in resolver.cache.entries()
            if key in changed
        }

    pushed = changed_entries(subscriber)
    assert set(pushed) == changed
    assert pushed == changed_entries(reference)


@pytest.mark.parametrize(
    "journal_limit, fallback",
    [(512, False), (2, True)],
    ids=["ixfr", "axfr_fallback"],
)
def test_pushed_deletion_stops_being_served(journal_limit, fallback):
    """A deleted record set leaves the subscriber's cache whether the
    pull came back as deltas or, past a truncated journal, as the full
    snapshot: the snapshot does not carry it, so it is dropped."""
    env, _meta, subscriber, writer, _reference = build(journal_limit)
    for i in range(6):
        run(env, subscriber.lookup(owner(i), RRType.UNSPEC))
    run(env, installer(subscriber).subscribe_notify("hns"))
    ops = [UpdateOp(UpdateMode.DELETE, DomainName(owner(0)), RRType.UNSPEC)]
    run(env, writer.primary.update_batch(ops + replace(*((i, 1) for i in range(1, 6)))))
    env.run(until=env.now + 1_000.0)  # the push, the pull, the install

    counters = env.stats.counters()
    assert counters[f"bind.{subscriber.name}.notify_pulls"] == 1
    assert counters.get("bind.meta.ixfr_fallbacks", 0) == (1 if fallback else 0)
    with pytest.raises(NameNotFound):
        run(env, subscriber.lookup(owner(0), RRType.UNSPEC))
    for i in range(1, 6):
        records = run(env, subscriber.lookup(owner(i), RRType.UNSPEC))
        assert [r.text for r in records] == ["ns=v1"]


def test_a_push_during_a_pull_is_pulled_after_it():
    """The second write lands while the first write's pull is still
    installing; its push must not be lost, or the warm owner it
    rewrote is served at its old value until the TTL runs out."""
    env, _meta, subscriber, writer, _reference = build(512)
    run(env, subscriber.lookup(owner(0), RRType.UNSPEC))
    run(env, installer(subscriber).subscribe_notify("hns"))
    pull_ms = (
        CAL.xfer_setup_ms + (CAL.xfer_per_record_ms + CAL.xfer_install_per_record_ms) * WAVE
    )

    def writes():
        yield from writer.primary.update_batch(replace(*((i, 1) for i in range(1, WAVE + 1))))
        yield env.timeout(pull_ms / 2)
        yield from writer.primary.update_batch(replace((0, 2)))

    run(env, writes())
    env.run(until=env.now + 2_000.0)  # quiescent, far inside the TTL

    records = run(env, subscriber.lookup(owner(0), RRType.UNSPEC))
    assert [r.text for r in records] == ["ns=v2"]
    assert env.stats.counters()[f"bind.{subscriber.name}.notify_pulls"] == 2


def test_a_failed_pull_is_counted_and_the_next_push_pulls_again():
    env, meta, subscriber, writer, _reference = build(512)
    run(env, subscriber.lookup(owner(0), RRType.UNSPEC))
    run(env, installer(subscriber).subscribe_notify("hns"))

    meta.allow_zone_transfer = False  # the pull's IXFR is refused
    run(env, writer.primary.update_batch(replace((0, 1))))
    env.run(until=env.now + 1_000.0)
    counters = env.stats.counters()
    assert counters[f"bind.{subscriber.name}.notify_pulls"] == 1
    assert counters[f"bind.{subscriber.name}.notify_pull_failures"] == 1
    records = run(env, subscriber.lookup(owner(0), RRType.UNSPEC))
    assert [r.text for r in records] == ["ns=v0"]

    meta.allow_zone_transfer = True
    run(env, writer.primary.update_batch(replace((0, 2))))
    env.run(until=env.now + 1_000.0)
    counters = env.stats.counters()
    assert counters[f"bind.{subscriber.name}.notify_pulls"] == 2
    assert counters[f"bind.{subscriber.name}.notify_pull_failures"] == 1
    records = run(env, subscriber.lookup(owner(0), RRType.UNSPEC))
    assert [r.text for r in records] == ["ns=v2"]


def test_an_uncacheable_pulled_answer_is_not_served_from_the_old_one():
    """A REPLACE whose new record set has TTL 0 (DNS's "do not cache")
    drops what the subscriber held for that owner: the pull installs
    nothing for it, so the next read asks the primary, which holds the
    new version, instead of serving the old one for the rest of its TTL."""
    env, meta, subscriber, writer, _reference = build(512)
    run(env, subscriber.lookup(owner(0), RRType.UNSPEC))
    run(env, installer(subscriber).subscribe_notify("hns"))
    uncacheable = ResourceRecord.text_record(
        owner(0), "ns=v1", rtype=RRType.UNSPEC, ttl=0
    )
    op = UpdateOp(
        UpdateMode.REPLACE, DomainName(owner(0)), RRType.UNSPEC, records=(uncacheable,)
    )
    run(env, writer.primary.update_batch([op]))
    env.run(until=env.now + 1_000.0)  # the push, the pull, the install

    assert env.stats.counters()[f"bind.{subscriber.name}.notify_pulls"] == 1
    zone = meta.zone_named(DomainName("hns"))
    assert [r.text for r in zone.lookup(owner(0), RRType.UNSPEC)] == ["ns=v1"]
    assert (owner(0), RRType.UNSPEC.value) not in subscriber.cache
    records = run(env, subscriber.lookup(owner(0), RRType.UNSPEC))
    assert [r.text for r in records] == ["ns=v1"]
