"""A repeat answer is built once.

The server keeps one slot per (name, rtype) holding the reply and its
marshalled value while the answering zone's serial stands; the resolver
keeps one query per cache key.  Reuse must never show: a write, a new
zone or a lease gets a fresh answer, and a caller's records are its own.
"""

import pytest

from repro.bind import (
    BindResolver,
    BindServer,
    DomainName,
    ResourceRecord,
    RRType,
    UpdateMode,
    UpdateOp,
    Zone,
)
from repro.bind.messages import STATUS_NXDOMAIN, STATUS_OK, QueryRequest


def run(env, gen):
    return env.run(until=env.process(gen))


def ask(deployment, name, rtype=RRType.A, endpoint=None):
    """One raw query exchange; returns the reply object received."""
    env, net, transport, client, server, default = deployment

    def exchange():
        reply = yield transport.request(
            client, endpoint or default, QueryRequest(DomainName(name), rtype), 32
        )
        return reply

    return run(env, exchange())


@pytest.mark.memo
def test_two_queries_at_one_serial_get_the_same_reply(deployment):
    first = ask(deployment, "gateway.gw.net")
    second = ask(deployment, "gateway.gw.net")
    assert second is first and second.wire is first.wire
    assert len(first.records) == 6


def test_a_write_gets_a_fresh_answer(deployment):
    server = deployment[4]
    before = ask(deployment, "fiji.cs.washington.edu")
    server.zones[0].add(ResourceRecord.a_record("fiji.cs.washington.edu", "128.95.1.9"))
    after = ask(deployment, "fiji.cs.washington.edu")
    assert after is not before
    assert [r.address for r in before.records] == ["128.95.1.4"]
    assert [r.address for r in after.records] == ["128.95.1.4", "128.95.1.9"]
    # a write elsewhere in the zone moves its serial too
    server.zones[0].remove("june.cs.washington.edu", RRType.A)
    assert ask(deployment, "fiji.cs.washington.edu").records == after.records


def test_a_leased_key_gets_a_capped_answer_each_time(deployment):
    env, net, transport, client, server, endpoint = deployment
    meta = BindServer(
        server.host, zones=[Zone("hns")], allow_dynamic_update=True, name="meta"
    )
    meta_endpoint = meta.listen(5353)
    resolver = BindResolver(client, transport, meta_endpoint)
    owner = DomainName("box.hns")
    record = ResourceRecord(owner, RRType.UNSPEC, 3_600_000.0, b"v=1")
    run(env, resolver.primary.update_batch([
        UpdateOp(UpdateMode.REPLACE, owner, RRType.UNSPEC, lease_ms=5_000.0, records=(record,))
    ]))

    ttls = []
    replies = []
    for _ in range(3):
        reply = ask(deployment, "box.hns", RRType.UNSPEC, meta_endpoint)
        replies.append(reply)
        ttls.append(reply.records[0].ttl)
    assert len({id(reply) for reply in replies}) == 3
    assert 5_000.0 > ttls[0] > ttls[1] > ttls[2] > 0


def test_add_zone_answers_a_name_it_now_covers(deployment):
    server = deployment[4]
    assert ask(deployment, "host.mit.edu").status == STATUS_NXDOMAIN
    mit = Zone("mit.edu")
    mit.add(ResourceRecord.a_record("host.mit.edu", "18.0.0.1"))
    server.add_zone(mit)
    reply = ask(deployment, "host.mit.edu")
    assert reply.status == STATUS_OK
    assert [r.address for r in reply.records] == ["18.0.0.1"]


def test_mutating_returned_records_does_not_change_the_next_answer(deployment):
    env, net, transport, client, server, endpoint = deployment
    resolver = BindResolver(client, transport, endpoint)
    first = run(env, resolver.lookup("gateway.gw.net"))
    expected = list(first)
    first.clear()
    assert run(env, resolver.lookup("gateway.gw.net")) == expected


@pytest.mark.memo
def test_a_repeat_lookup_sends_the_same_request_bytes(deployment, monkeypatch):
    env, net, transport, client, server, endpoint = deployment
    resolver = BindResolver(client, transport, endpoint)
    marshaller = resolver._hand_request
    sent = []

    def encode(value):
        answer = type(marshaller).encode(marshaller, value)
        sent.append(answer)
        return answer

    monkeypatch.setattr(marshaller, "encode", encode)
    run(env, resolver.lookup("fiji.cs.washington.edu"))
    run(env, resolver.lookup("fiji.cs.washington.edu"))
    assert len(sent) == 2
    assert sent[1] is sent[0]
