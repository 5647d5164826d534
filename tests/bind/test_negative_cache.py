"""Negative caching of NXDOMAIN answers."""

import dataclasses

import pytest

from repro.bind import BindResolver, NameNotFound, ResolverCache, ResourceRecord
from repro.resolution import PolicySet, ResolutionPolicy


def run(env, gen):
    return env.run(until=env.process(gen))


def _negative_only(negative_ttl_ms):
    """The prototype's resolution policy plus a negative-cache TTL."""
    return PolicySet(
        resolution=dataclasses.replace(
            ResolutionPolicy.disabled(), negative_ttl_ms=negative_ttl_ms
        )
    )


def make_resolver(deployment, negative_ttl_ms):
    env, net, transport, client, server, endpoint = deployment
    cache = ResolverCache(env)
    return (
        env,
        server,
        BindResolver(
            client,
            transport,
            endpoint,
            cache=cache,
            policies=_negative_only(negative_ttl_ms),
        ),
    )


def expect_missing(env, resolver, name):
    def scenario():
        with pytest.raises(NameNotFound):
            yield from resolver.lookup(name)
        return "missing"

    assert run(env, scenario()) == "missing"


def test_negative_hit_avoids_remote_call(deployment):
    env, server, resolver = make_resolver(deployment, negative_ttl_ms=1_000)
    expect_missing(env, resolver, "ghost.cs.washington.edu")
    remote_after_first = env.stats.counters()["bind.resolver.remote_lookups"]
    expect_missing(env, resolver, "ghost.cs.washington.edu")
    assert env.stats.counters()["bind.resolver.remote_lookups"] == remote_after_first
    assert env.stats.counters()["bind.resolver.negative_hits"] == 1


def test_negative_hit_is_fast(deployment):
    env, server, resolver = make_resolver(deployment, negative_ttl_ms=1_000)
    expect_missing(env, resolver, "ghost.cs.washington.edu")
    start = env.now
    expect_missing(env, resolver, "ghost.cs.washington.edu")
    assert env.now - start < 1.0  # a probe, not a 27 ms round trip


def test_negative_entry_expires(deployment):
    env, server, resolver = make_resolver(deployment, negative_ttl_ms=200)
    expect_missing(env, resolver, "newhost.cs.washington.edu")
    # The name comes into existence natively...
    server.zones[0].add(
        ResourceRecord.a_record("newhost.cs.washington.edu", "128.95.1.77")
    )
    # ...still negatively cached inside the window...
    expect_missing(env, resolver, "newhost.cs.washington.edu")
    # ...but discoverable after it.
    env.run(until=env.now + 250)
    records = run(env, resolver.lookup("newhost.cs.washington.edu"))
    assert records[0].address == "128.95.1.77"


def test_disabled_by_default(deployment):
    env, server, resolver = make_resolver(deployment, negative_ttl_ms=0)
    expect_missing(env, resolver, "ghost.cs.washington.edu")
    expect_missing(env, resolver, "ghost.cs.washington.edu")
    assert env.stats.counters()["bind.resolver.remote_lookups"] == 2
    assert "bind.resolver.negative_hits" not in env.stats.counters()


def test_negative_and_positive_entries_coexist(deployment):
    env, server, resolver = make_resolver(deployment, negative_ttl_ms=1_000)
    records = run(env, resolver.lookup("fiji.cs.washington.edu"))
    expect_missing(env, resolver, "ghost.cs.washington.edu")
    again = run(env, resolver.lookup("fiji.cs.washington.edu"))
    assert {r.address for r in again} == {r.address for r in records}


def test_negative_ttl_validation(deployment):
    env, net, transport, client, server, endpoint = deployment
    with pytest.raises(ValueError):
        BindResolver(client, transport, endpoint, policies=_negative_only(-1))
