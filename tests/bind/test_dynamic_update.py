"""The production write path: batched updates, leases, NOTIFY/IXFR."""

import pytest

from repro.bind import (
    BindResolver,
    BindServer,
    DomainName,
    NameNotFound,
    ResourceRecord,
    RRType,
    UpdateMode,
    UpdateOp,
    UpdateRefused,
    Zone,
)
from repro.bind.messages import STATUS_OK
from repro.core.errors import ContextNotFound
from repro.resolution import (
    DEFAULT_RESOLUTION_POLICY,
    PolicySet,
    UpdatePolicy,
)
from repro.workloads.scenarios import build_testbed


def run(env, gen):
    return env.run(until=env.process(gen))


def idle(env, ms):
    def sleeper():
        yield env.timeout(ms)

    run(env, sleeper())


def _replace_op(owner, value, lease_ms=0.0, ttl=3_600_000.0):
    return UpdateOp(
        UpdateMode.REPLACE,
        DomainName(owner),
        RRType.UNSPEC,
        lease_ms=lease_ms,
        records=(ResourceRecord(owner, RRType.UNSPEC, ttl, value),),
    )


def _meta_server(deployment, **kwargs):
    env, net, transport, client, server, endpoint = deployment
    meta = BindServer(
        server.host,
        zones=[Zone("hns")],
        allow_dynamic_update=True,
        name="meta",
        **kwargs,
    )
    ep = meta.listen(5353)
    return meta, BindResolver(client, transport, ep)


# ----------------------------------------------------------------------
# Batched updates
# ----------------------------------------------------------------------
def test_update_batch_applies_every_op_in_one_exchange(deployment):
    env = deployment[0]
    meta, resolver = _meta_server(deployment)

    ops = [_replace_op(f"svc{i}.hns", f"v={i}".encode()) for i in range(5)]
    serial, statuses = run(env, resolver.primary.update_batch(ops))

    assert statuses == [STATUS_OK] * 5
    assert serial == meta.zones[0].serial
    counters = env.stats.counters()
    assert counters["bind.update.batches"] == 1
    assert counters["bind.update.ops"] == 5
    records = run(env, resolver.lookup("svc3.hns", RRType.UNSPEC))
    assert records[0].data == b"v=3"


def test_update_batch_refused_without_dynamic_update(deployment):
    env, net, transport, client, server, endpoint = deployment
    resolver = BindResolver(client, transport, endpoint)  # public server

    def scenario():
        with pytest.raises(UpdateRefused):
            yield from resolver.primary.update_batch([_replace_op("x.gw.net", b"v=1")])
        return "done"

    assert run(env, scenario()) == "done"


def test_update_batch_add_extends_the_record_set(deployment):
    env = deployment[0]
    meta, resolver = _meta_server(deployment)
    run(env, resolver.primary.update_batch([_replace_op("svc.hns", b"v=1")]))
    before = meta.zones[0].serial

    add = UpdateOp(
        UpdateMode.ADD,
        DomainName("svc.hns"),
        RRType.UNSPEC,
        records=(ResourceRecord("svc.hns", RRType.UNSPEC, 3_600_000.0, b"v=2"),),
    )
    serial, statuses = run(env, resolver.primary.update_batch([add]))

    assert statuses == [STATUS_OK]
    assert serial == meta.zones[0].serial > before
    records = run(env, resolver.lookup("svc.hns", RRType.UNSPEC))
    assert sorted(r.data for r in records) == [b"v=1", b"v=2"]


def test_update_batch_delete_drops_the_record_set_and_its_lease(deployment):
    """A batched DELETE forgets the lease too: the sweeper must not later
    retract a lease-less re-add of the same record set."""
    env = deployment[0]
    meta, resolver = _meta_server(deployment)
    run(env, resolver.primary.update_batch([_replace_op("box.hns", b"v=1", lease_ms=500.0)]))

    delete = UpdateOp(UpdateMode.DELETE, DomainName("box.hns"), RRType.UNSPEC)
    _serial, statuses = run(env, resolver.primary.update_batch([delete]))
    assert statuses == [STATUS_OK]

    def absent():
        with pytest.raises(NameNotFound):
            yield from resolver.lookup("box.hns", RRType.UNSPEC)
        return "done"

    assert run(env, absent()) == "done"
    run(env, resolver.primary.update_batch([_replace_op("box.hns", b"v=2")]))
    idle(env, 1_000.0)  # well past the deleted lease's expiry
    records = run(env, resolver.lookup("box.hns", RRType.UNSPEC))
    assert [r.data for r in records] == [b"v=2"]
    assert "bind.update.lease_expirations" not in env.stats.counters()


def test_metastore_coalesces_concurrent_writes_last_writer_wins():
    """A write storm through one store flushes as a single batch, and a
    same-owner rewrite inside the window takes the later value."""
    testbed = build_testbed(seed=3, update_policy=UpdatePolicy())
    env = testbed.env
    store = testbed.make_metastore(
        testbed.client,
        policies=PolicySet(
            resolution=DEFAULT_RESOLUTION_POLICY, update=UpdatePolicy()
        ),
    )
    before = env.stats.counters().get("bind.update.batches", 0)

    def drive():
        writers = [
            env.process(store.register_context(f"ctx{i}", "BIND-cs"))
            for i in range(6)
        ]
        writers.append(env.process(store.register_context("ctx0", "CH-hcs")))
        yield env.all_of(writers)

    run(env, drive())
    counters = env.stats.counters()
    assert counters["bind.update.batches"] - before == 1
    assert counters["hns.meta.coalesced_writes"] == 6
    assert run(env, store.context_to_name_service("ctx0")) == "CH-hcs"
    assert run(env, store.context_to_name_service("ctx5")) == "BIND-cs"


# ----------------------------------------------------------------------
# Leases
# ----------------------------------------------------------------------
def test_lease_lapses_and_the_server_retracts_the_binding(deployment):
    env = deployment[0]
    meta, resolver = _meta_server(deployment)

    run(env, resolver.primary.update_batch([_replace_op("box.hns", b"v=1", lease_ms=500.0)]))
    assert run(env, resolver.lookup("box.hns", RRType.UNSPEC))

    idle(env, 1_000.0)

    def scenario():
        with pytest.raises(NameNotFound):
            yield from resolver.lookup("box.hns", RRType.UNSPEC)
        return "done"

    assert run(env, scenario()) == "done"
    assert env.stats.counters()["bind.update.lease_expirations"] == 1


def test_lease_renewal_keeps_the_binding_alive_until_the_owner_dies():
    update = UpdatePolicy(invalidation="lease", lease_ms=1_000.0)
    testbed = build_testbed(seed=5, update_policy=update)
    env = testbed.env
    store = testbed.make_metastore(
        testbed.agent_host,
        policies=PolicySet(resolution=DEFAULT_RESOLUTION_POLICY, update=update),
    )
    reader = testbed.make_metastore(testbed.client)

    run(env, store.register_context("leased", "BIND-cs"))
    idle(env, 3_500.0)  # several lease lifetimes later...
    assert run(env, reader.context_to_name_service("leased")) == "BIND-cs"
    assert env.stats.counters()["nsm.lease.renewals"] >= 3
    assert env.stats.counters().get("bind.update.lease_expirations", 0) == 0

    store.stop_lease_renewal()
    idle(env, 2_500.0)  # ...the owner dies, and the lease lapses

    def scenario():
        with pytest.raises(ContextNotFound):
            yield from reader.context_to_name_service("leased")
        return "done"

    assert run(env, scenario()) == "done"
    assert env.stats.counters()["bind.update.lease_expirations"] >= 1


@pytest.mark.parametrize("batch", [True, False], ids=["batched", "unbatched"])
@pytest.mark.parametrize("offset_ms", [0, 3, 6, 9, 12, 20])
def test_unregister_is_not_undone_by_a_renewal_in_flight(batch, offset_ms):
    """Unregistering ``offset_ms`` before the renewal tick: the DELETE
    waits out the batch window and its round trip, and a renewal sent
    meanwhile must not re-add the binding behind it."""
    update = UpdatePolicy(invalidation="lease", lease_ms=2_000.0, batch=batch)
    testbed = build_testbed(seed=5, update_policy=update)
    env = testbed.env
    store = testbed.make_metastore(
        testbed.agent_host,
        policies=PolicySet(resolution=DEFAULT_RESOLUTION_POLICY, update=update),
    )
    run(env, store.register_context("leased", "BIND-cs"))
    zone = testbed.meta_server.zones[0]
    assert zone.contains("leased.ctx.hns", RRType.UNSPEC)
    idle(env, 1_000.0 - offset_ms)  # renewals tick every lease_ms / 2
    run(env, store.unregister("leased.ctx.hns"))
    for settle_ms in (50.0, 950.0, 900.0):  # 50, 1 000, 1 900 ms after
        idle(env, settle_ms)
        assert not zone.contains("leased.ctx.hns", RRType.UNSPEC)


# ----------------------------------------------------------------------
# NOTIFY fan-out and IXFR pulls
# ----------------------------------------------------------------------
def test_notify_push_updates_a_subscribed_resolver_cache():
    update = UpdatePolicy(invalidation="notify")
    testbed = build_testbed(seed=9, update_policy=update)
    env = testbed.env
    writer = testbed.make_metastore(
        testbed.agent_host,
        policies=PolicySet(resolution=DEFAULT_RESOLUTION_POLICY, update=update),
    )
    reader = testbed.make_metastore(testbed.client)

    assert run(env, reader.context_to_name_service("BIND-cs")) == "BIND-cs"
    run(env, reader.subscribe_invalidation())
    run(env, writer.register_context("BIND-cs", "CH-hcs"))
    idle(env, 100.0)

    # The rebinding is visible from the reader's cache alone: no new
    # round trip to the meta server.
    before = env.stats.counters().get("bind.meta-bind.requests", 0)
    assert run(env, reader.context_to_name_service("BIND-cs")) == "CH-hcs"
    assert env.stats.counters().get("bind.meta-bind.requests", 0) == before


# ----------------------------------------------------------------------
# Prototype equivalence
# ----------------------------------------------------------------------
#: the trace digest of the run below at the last commit where the
#: prototype write path could also be spelled ``update_policy=None``
#: (both spellings gave this)
PROTOTYPE_WRITE_DIGEST = (
    "e532e19ac76f5c7338fc092c27e069ab30b668d9052e8765af50106da7d3f647"
)


def test_disabled_update_policy_reproduces_the_prototype_bit_for_bit():
    update = UpdatePolicy.disabled()
    testbed = build_testbed(seed=13, update_policy=update)
    env = testbed.env
    env.trace.enabled = True
    store = testbed.make_metastore(
        testbed.client,
        policies=PolicySet(resolution=DEFAULT_RESOLUTION_POLICY, update=update),
    )

    def drive():
        yield from store.register_context("proto", "BIND-cs")
        ns = yield from store.context_to_name_service("proto")
        assert ns == "BIND-cs"

    run(env, drive())
    assert env.trace.digest() == PROTOTYPE_WRITE_DIGEST
