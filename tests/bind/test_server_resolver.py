"""Server + resolver end-to-end, including the calibrated 27 ms lookup."""

import pytest

from repro.bind import (
    BindResolver,
    BindServer,
    NameNotFound,
    ResourceRecord,
    RRType,
    UpdateMode,
    UpdateRefused,
    Zone,
    ZoneNotFound,
)


def run(env, gen):
    return env.run(until=env.process(gen))


def add_record(resolver, record):
    return resolver.primary.update(
        UpdateMode.ADD, record.name, record.rtype, [record]
    )


def test_lookup_returns_records(deployment):
    env, net, transport, client, server, endpoint = deployment
    resolver = BindResolver(client, transport, endpoint)

    records = run(env, resolver.lookup("fiji.cs.washington.edu"))
    assert len(records) == 1
    assert records[0].address == "128.95.1.4"


def test_conventional_lookup_costs_27ms(deployment):
    """'a BIND name to address lookup takes 27 msec.'"""
    env, net, transport, client, server, endpoint = deployment
    resolver = BindResolver(client, transport, endpoint)

    start = env.now
    run(env, resolver.lookup_address("fiji.cs.washington.edu"))
    assert env.now - start == pytest.approx(27.0, rel=0.02)


def test_lookup_missing_name_raises(deployment):
    env, net, transport, client, server, endpoint = deployment
    resolver = BindResolver(client, transport, endpoint)

    def scenario():
        with pytest.raises(NameNotFound):
            yield from resolver.lookup("nohost.cs.washington.edu")
        return "done"

    assert run(env, scenario()) == "done"


def test_lookup_outside_any_zone_raises(deployment):
    env, net, transport, client, server, endpoint = deployment
    resolver = BindResolver(client, transport, endpoint)

    def scenario():
        with pytest.raises(NameNotFound):
            yield from resolver.lookup("host.mit.edu")
        return "done"

    assert run(env, scenario()) == "done"


def test_multi_record_answer(deployment):
    env, net, transport, client, server, endpoint = deployment
    resolver = BindResolver(client, transport, endpoint)
    records = run(env, resolver.lookup("gateway.gw.net"))
    assert len(records) == 6
    assert {r.address for r in records} == {f"10.0.0.{i + 1}" for i in range(6)}


def test_generated_marshalling_costs_more(deployment):
    env, net, transport, client, server, endpoint = deployment
    hand = BindResolver(client, transport, endpoint, marshalling="handcoded")
    gen = BindResolver(client, transport, endpoint, marshalling="generated")

    t0 = env.now
    run(env, hand.lookup("fiji.cs.washington.edu"))
    hand_time = env.now - t0
    t1 = env.now
    run(env, gen.lookup("fiji.cs.washington.edu"))
    gen_time = env.now - t1
    # Generated demarshalling adds ~9.6 ms on a 1-record response.
    assert gen_time - hand_time == pytest.approx(10.28 - 0.65, rel=0.02)


def test_bad_marshalling_style_rejected(deployment):
    env, net, transport, client, server, endpoint = deployment
    with pytest.raises(ValueError):
        BindResolver(client, transport, endpoint, marshalling="psychic")


def test_dynamic_update_refused_by_public_server(deployment):
    env, net, transport, client, server, endpoint = deployment
    resolver = BindResolver(client, transport, endpoint)

    def scenario():
        with pytest.raises(UpdateRefused):
            yield from add_record(
                resolver,
                ResourceRecord.a_record("new.cs.washington.edu", "1.2.3.4")
            )
        return "done"

    assert run(env, scenario()) == "done"


def test_dynamic_update_on_modified_server(deployment):
    env, net, transport, client, _, _ = deployment
    host = net.add_host("meta")
    zone = Zone("hns")
    meta = BindServer(
        host, zones=[zone], allow_dynamic_update=True, lookup_cost_ms=4.8
    )
    ep = meta.listen()
    resolver = BindResolver(client, transport, ep)

    serial = run(
        env,
        add_record(
            resolver,
            ResourceRecord.text_record("ctx.context.hns", "BIND-cs", ttl=1000)
        ),
    )
    assert serial == zone.serial
    records = run(env, resolver.lookup("ctx.context.hns", RRType.TXT))
    assert records[0].text == "BIND-cs"

    # Replace and delete round out the update modes.
    run(
        env,
        resolver.primary.update(
            UpdateMode.REPLACE,
            "ctx.context.hns",
            RRType.TXT,
            [ResourceRecord.text_record("ctx.context.hns", "BIND-ee", ttl=1000)],
        ),
    )
    assert (
        run(env, resolver.lookup("ctx.context.hns", RRType.TXT))[0].text == "BIND-ee"
    )
    run(env, resolver.primary.update(UpdateMode.DELETE, "ctx.context.hns", RRType.TXT))

    def scenario():
        with pytest.raises(NameNotFound):
            yield from resolver.lookup("ctx.context.hns", RRType.TXT)
        return "done"

    assert run(env, scenario()) == "done"


def test_update_to_unknown_zone(deployment):
    env, net, transport, client, _, _ = deployment
    host = net.add_host("meta")
    meta = BindServer(host, zones=[Zone("hns")], allow_dynamic_update=True)
    ep = meta.listen()
    resolver = BindResolver(client, transport, ep)

    def scenario():
        with pytest.raises(NameNotFound):
            yield from add_record(
                resolver,
                ResourceRecord.a_record("x.other", "1.2.3.4")
            )
        return "done"

    assert run(env, scenario()) == "done"


def test_zone_transfer_returns_all_records(deployment):
    env, net, transport, client, server, endpoint = deployment
    resolver = BindResolver(client, transport, endpoint)
    serial, records = run(env, resolver.primary.zone_transfer("cs.washington.edu"))
    assert serial > 0
    assert {str(r.name) for r in records} == {
        "fiji.cs.washington.edu",
        "june.cs.washington.edu",
    }


def test_zone_transfer_of_unknown_zone(deployment):
    env, net, transport, client, server, endpoint = deployment
    resolver = BindResolver(client, transport, endpoint)

    def scenario():
        with pytest.raises(ZoneNotFound):
            yield from resolver.primary.zone_transfer("nope")
        return "done"

    assert run(env, scenario()) == "done"


def test_server_longest_zone_match():
    from repro.net import Internetwork
    from repro.sim import Environment
    from repro.bind import DomainName

    env = Environment()
    net = Internetwork(env)
    host = net.add_host("ns")
    outer = Zone("washington.edu")
    inner = Zone("cs.washington.edu")
    server = BindServer(host, zones=[outer, inner])
    assert server.zone_for(DomainName("fiji.cs.washington.edu")) is inner
    assert server.zone_for(DomainName("ee.washington.edu")) is outer
    assert server.zone_for(DomainName("mit.edu")) is None
    with pytest.raises(ValueError):
        server.add_zone(Zone("cs.washington.edu"))


def test_concurrent_queries_queue_on_server_cpu(deployment):
    env, net, transport, client, server, endpoint = deployment
    resolver = BindResolver(client, transport, endpoint)
    client2 = net.add_host("client2")
    resolver2 = BindResolver(client2, transport, endpoint)

    done = {}

    def q(tag, res):
        yield from res.lookup("fiji.cs.washington.edu")
        done[tag] = env.now

    env.process(q("a", resolver))
    env.process(q("b", resolver2))
    env.run()
    # The server CPU serialises the two ~23 ms lookups: under contention
    # both queries take roughly twice the uncontended 27 ms.
    assert max(done.values()) >= 45.0
