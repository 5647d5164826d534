"""Resolver cache: TTL invalidation, formats, Table 3.2 hit costs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bind import BindResolver, CacheFormat, CacheInstaller, ResolverCache
from repro.sim import Environment


def run(env, gen):
    return env.run(until=env.process(gen))


# ----------------------------------------------------------------------
# Pure cache mechanics
# ----------------------------------------------------------------------
def test_probe_miss_then_hit():
    env = Environment()
    cache = ResolverCache(env)
    entry, cost = cache.probe("k")
    assert entry is None and cost > 0
    cache.insert("k", ["v"], 1, ttl_ms=100)
    entry, _ = cache.probe("k")
    assert entry is not None and entry.payload == ["v"]
    assert cache.hits == 1 and cache.misses == 1
    assert cache.hit_ratio == 0.5


def test_ttl_expiry():
    env = Environment()
    cache = ResolverCache(env)
    cache.insert("k", "v", 1, ttl_ms=50)
    assert "k" in cache
    env.run(until=49)
    assert cache.probe("k")[0] is not None
    env.run(until=50)
    assert "k" not in cache
    assert cache.probe("k")[0] is None
    assert cache.expirations == 1


def test_zero_ttl_not_cached():
    env = Environment()
    cache = ResolverCache(env)
    assert cache.insert("k", "v", 1, ttl_ms=0) == 0.0
    assert not list(cache.entries(include_stale=True))


def test_lru_eviction():
    env = Environment()
    cache = ResolverCache(env, capacity=2)
    cache.insert("a", 1, 1, 1000)
    cache.insert("b", 2, 1, 1000)
    cache.probe("a")  # a is now most recently used
    cache.insert("c", 3, 1, 1000)
    assert "a" in cache and "c" in cache and "b" not in cache
    assert cache.evictions == 1


def test_eviction_prefers_expired_over_live():
    """At capacity, a dead entry goes before the LRU live one."""
    env = Environment()
    cache = ResolverCache(env, capacity=2)
    cache.insert("a", 1, 1, 10_000)  # LRU but live
    cache.insert("b", 2, 1, 50)  # expires first
    env.run(until=60)
    cache.insert("c", 3, 1, 10_000)
    assert "a" in cache and "c" in cache and "b" not in cache
    assert cache.evictions == 1


def test_counters_mirrored_into_env_stats():
    """Every cache counter doubles as a cache.<name>.<counter> stat."""
    env = Environment()
    cache = ResolverCache(env, name="unit", capacity=1)
    cache.probe("k")  # miss
    cache.insert("k", "v", 1, 1000)
    cache.probe("k")  # hit
    cache.insert("other", "w", 1, 1000)  # evicts k
    cache.record_coalesced()
    cache.record_refresh()
    counters = env.stats.counters()
    assert counters["cache.unit.misses"] == cache.misses == 1
    assert counters["cache.unit.hits"] == cache.hits == 1
    assert counters["cache.unit.evictions"] == cache.evictions == 1
    assert counters["cache.unit.coalesced"] == cache.coalesced == 1
    assert counters["cache.unit.refreshes"] == cache.refreshes == 1


def test_reinsert_at_capacity_does_not_evict_other():
    env = Environment()
    cache = ResolverCache(env, capacity=2)
    cache.insert("a", 1, 1, 1000)
    cache.insert("b", 2, 1, 1000)
    cache.insert("a", 9, 1, 1000)  # overwrite in place
    assert "a" in cache and "b" in cache
    assert cache.evictions == 0


def test_invalidate_and_clear():
    env = Environment()
    cache = ResolverCache(env)
    cache.insert("a", 1, 1, 1000)
    assert cache.invalidate("a")
    assert not cache.invalidate("a")
    cache.insert("b", 1, 1, 1000)
    cache.clear()
    assert not list(cache.entries(include_stale=True))


def test_capacity_validation():
    with pytest.raises(ValueError):
        ResolverCache(Environment(), capacity=0)


def test_hit_cost_formats():
    env = Environment()
    dem = ResolverCache(env, fmt=CacheFormat.DEMARSHALLED)
    mar = ResolverCache(env, fmt=CacheFormat.MARSHALLED)
    dem.insert("k", ["v"], 1, 1000)
    mar.insert("k", b"bytes", 1, 1000)
    dem_entry, _ = dem.probe("k")
    mar_entry, _ = mar.probe("k")
    # Demarshalled hits ignore the demarshal cost argument.
    assert dem.hit_cost(dem_entry, demarshal_cost_ms=99) == dem.hit_cost(dem_entry)
    assert mar.hit_cost(mar_entry, demarshal_cost_ms=10.28) == pytest.approx(
        10.28 + dem.hit_cost(dem_entry)
    )


@given(st.integers(min_value=1, max_value=20), st.floats(min_value=1, max_value=1e4))
@settings(max_examples=40, deadline=None)
def test_entry_never_survives_its_ttl(nrecords, ttl):
    env = Environment()
    cache = ResolverCache(env)
    cache.insert("k", "v", nrecords, ttl)
    env.run(until=ttl)
    assert "k" not in cache


# ----------------------------------------------------------------------
# Resolver + cache integration (Table 3.2 end-to-end costs)
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name,nrecords,dem_target",
    [("fiji.cs.washington.edu", 1, 0.83), ("gateway.gw.net", 6, 1.22)],
)
def test_demarshalled_hit_cost_matches_paper(deployment, name, nrecords, dem_target):
    env, net, transport, client, server, endpoint = deployment
    cache = ResolverCache(env, fmt=CacheFormat.DEMARSHALLED)
    resolver = BindResolver(
        client, transport, endpoint, marshalling="generated", cache=cache
    )
    run(env, resolver.lookup(name))  # warm
    start = env.now
    records = run(env, resolver.lookup(name))
    assert len(records) == nrecords
    assert env.now - start == pytest.approx(dem_target, rel=0.005)


@pytest.mark.parametrize(
    "name,marsh_target", [("fiji.cs.washington.edu", 11.11), ("gateway.gw.net", 26.17)]
)
def test_marshalled_hit_cost_matches_paper(deployment, name, marsh_target):
    env, net, transport, client, server, endpoint = deployment
    cache = ResolverCache(env, fmt=CacheFormat.MARSHALLED)
    resolver = BindResolver(
        client, transport, endpoint, marshalling="generated", cache=cache
    )
    run(env, resolver.lookup(name))
    start = env.now
    run(env, resolver.lookup(name))
    assert env.now - start == pytest.approx(marsh_target, rel=0.005)


def test_cached_records_match_uncached(deployment):
    env, net, transport, client, server, endpoint = deployment
    cache = ResolverCache(env)
    cached = BindResolver(client, transport, endpoint, cache=cache)
    plain = BindResolver(client, transport, endpoint)
    a = run(env, plain.lookup("gateway.gw.net"))
    run(env, cached.lookup("gateway.gw.net"))
    b = run(env, cached.lookup("gateway.gw.net"))  # from cache
    assert {r.address for r in a} == {r.address for r in b}
    assert cache.hits == 1


def test_cache_expiry_forces_refetch(deployment):
    env, net, transport, client, server, endpoint = deployment
    # Shrink the zone TTLs so expiry happens quickly.
    zone = server.zones[0]
    from repro.bind import ResourceRecord, RRType

    zone.replace(
        "fiji.cs.washington.edu",
        RRType.A,
        [ResourceRecord.a_record("fiji.cs.washington.edu", "128.95.1.4", ttl=200)],
    )
    cache = ResolverCache(env)
    resolver = BindResolver(client, transport, endpoint, cache=cache)
    run(env, resolver.lookup("fiji.cs.washington.edu"))
    env.run(until=env.now + 250)
    run(env, resolver.lookup("fiji.cs.washington.edu"))
    assert env.stats.counters()["bind.resolver.remote_lookups"] == 2


def test_stale_cache_serves_old_data_until_ttl(deployment):
    """The paper accepts TTL-bounded staleness; verify the window."""
    env, net, transport, client, server, endpoint = deployment
    from repro.bind import ResourceRecord, RRType

    zone = server.zones[0]
    zone.replace(
        "fiji.cs.washington.edu",
        RRType.A,
        [ResourceRecord.a_record("fiji.cs.washington.edu", "128.95.1.4", ttl=500)],
    )
    cache = ResolverCache(env)
    resolver = BindResolver(client, transport, endpoint, cache=cache)
    run(env, resolver.lookup("fiji.cs.washington.edu"))
    # The authority changes the address...
    zone.replace(
        "fiji.cs.washington.edu",
        RRType.A,
        [ResourceRecord.a_record("fiji.cs.washington.edu", "10.9.9.9", ttl=500)],
    )
    # ...but within the TTL the cache still answers with the old one.
    records = run(env, resolver.lookup("fiji.cs.washington.edu"))
    assert records[0].address == "128.95.1.4"
    env.run(until=env.now + 600)
    records = run(env, resolver.lookup("fiji.cs.washington.edu"))
    assert records[0].address == "10.9.9.9"


def test_preload_populates_cache(deployment):
    env, net, transport, client, server, endpoint = deployment
    cache = ResolverCache(env)
    resolver = BindResolver(client, transport, endpoint, cache=cache)
    installer = CacheInstaller(resolver.primary, cache)
    loaded = run(env, installer.preload("cs.washington.edu"))
    assert loaded == 2
    assert len(list(cache.entries(include_stale=True))) == 2
    # Preloaded entries answer without remote calls.
    run(env, resolver.lookup("fiji.cs.washington.edu"))
    assert "bind.resolver.remote_lookups" not in env.stats.counters()


def test_preload_into_marshalled_cache(deployment):
    env, net, transport, client, server, endpoint = deployment
    cache = ResolverCache(env, fmt=CacheFormat.MARSHALLED)
    resolver = BindResolver(
        client, transport, endpoint, marshalling="generated", cache=cache
    )
    run(env, CacheInstaller(resolver.primary, cache).preload("cs.washington.edu"))
    records = run(env, resolver.lookup("june.cs.washington.edu"))
    assert records[0].address == "128.95.1.5"
