"""Property-based tests of system-level invariants the paper relies on."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bind import (
    BindResolver,
    BindServer,
    ResourceRecord,
    Zone,
)
from repro.core import HNSName
from repro.net import DatagramTransport, Internetwork
from repro.serial.generated import MarshalCost
from repro.sim import ConstantLatency, Environment


def run(env, gen):
    return env.run(until=env.process(gen))


hostnames = st.lists(
    st.from_regex(r"[a-z][a-z0-9]{0,8}", fullmatch=True),
    min_size=1,
    max_size=12,
    unique=True,
)


# ----------------------------------------------------------------------
# AXFR completeness: a zone transfer returns exactly the zone's records.
# ----------------------------------------------------------------------
@given(hostnames)
@settings(max_examples=25, deadline=None)
def test_zone_transfer_is_complete_and_exact(names):
    env = Environment(seed=3)
    net = Internetwork(env)
    seg = net.add_segment(latency=ConstantLatency(1.0))
    client = net.add_host("client", seg)
    server_host = net.add_host("server", seg)
    zone = Zone("z")
    for i, name in enumerate(names):
        zone.add(ResourceRecord.a_record(f"{name}.z", f"10.0.0.{i + 1}"))
    server = BindServer(server_host, zones=[zone])
    ep = server.listen()
    resolver = BindResolver(client, DatagramTransport(net), ep)
    serial, records = run(env, resolver.primary.zone_transfer("z"))
    assert serial == zone.serial
    assert sorted(str(r.name) for r in records) == sorted(
        f"{n}.z" for n in names
    )
    assert {r.data for r in records} == {r.data for r in zone.all_records()}


# ----------------------------------------------------------------------
# Preload guarantee: every transferred name then hits the cache.
# ----------------------------------------------------------------------
@given(hostnames)
@settings(max_examples=15, deadline=None)
def test_preload_guarantees_hits_for_all_names(names):
    from repro.bind import CacheInstaller, ResolverCache

    env = Environment(seed=4)
    net = Internetwork(env)
    seg = net.add_segment(latency=ConstantLatency(1.0))
    client = net.add_host("client", seg)
    server_host = net.add_host("server", seg)
    zone = Zone("z")
    for i, name in enumerate(names):
        zone.add(ResourceRecord.a_record(f"{name}.z", f"10.0.0.{i + 1}"))
    server = BindServer(server_host, zones=[zone])
    ep = server.listen()
    cache = ResolverCache(env)
    resolver = BindResolver(client, DatagramTransport(net), ep, cache=cache)
    run(env, CacheInstaller(resolver.primary, cache).preload("z"))
    before = env.stats.counters().get("bind.resolver.remote_lookups", 0)
    for name in names:
        run(env, resolver.lookup(f"{name}.z"))
    after = env.stats.counters().get("bind.resolver.remote_lookups", 0)
    assert before == after  # not one remote call


# ----------------------------------------------------------------------
# Conflict freedom: combining systems can never collide names.
# ----------------------------------------------------------------------
@given(
    st.from_regex(r"[A-Za-z0-9][A-Za-z0-9-]{0,15}", fullmatch=True),
    st.from_regex(r"[A-Za-z0-9][A-Za-z0-9-]{0,15}", fullmatch=True),
    st.text(min_size=1, max_size=30).filter(lambda s: "::" not in s),
)
@settings(max_examples=50, deadline=None)
def test_name_conflict_freedom_across_contexts(ctx_a, ctx_b, local_name):
    """The same local name in two different contexts yields two distinct
    HNS names — 'no naming conflicts can ever be created in the HNS name
    space when combining previously separate systems'."""
    a = HNSName(ctx_a, local_name)
    b = HNSName(ctx_b, local_name)
    if ctx_a.lower() == ctx_b.lower() and ctx_a != ctx_b:
        return  # contexts are case-preserved identifiers; skip near-dups
    assert (a == b) == (ctx_a == ctx_b)
    # And the display form parses back unambiguously.
    assert HNSName.parse(str(a)) == a
    assert HNSName.parse(str(b)) == b


# ----------------------------------------------------------------------
# FindNSM determinism.
# ----------------------------------------------------------------------
def test_findnsm_is_deterministic_and_idempotent():
    from repro.workloads import build_testbed

    name = HNSName("BIND-cs", "fiji.cs.washington.edu")

    def binding_endpoint(seed):
        testbed = build_testbed(seed=seed)
        hns = testbed.make_hns(testbed.client)
        first = run(testbed.env, hns.find_nsm(name, "HRPCBinding"))
        second = run(testbed.env, hns.find_nsm(name, "HRPCBinding"))
        assert first == second  # warm result identical to cold
        return str(first.endpoint), first.program

    assert binding_endpoint(1) == binding_endpoint(1)


# ----------------------------------------------------------------------
# MarshalCost arithmetic.
# ----------------------------------------------------------------------
@given(
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=0, max_value=100_000),
)
@settings(max_examples=50, deadline=None)
def test_marshal_cost_merge_is_additive(pc, ic, al, by):
    from repro.serial.generated import OpCosts

    a = MarshalCost(pc, ic, al, by)
    b = MarshalCost(ic, al, by % 1000, pc)
    merged = a.merge(b)
    assert merged.proc_calls == a.proc_calls + b.proc_calls
    assert merged.indirect_calls == a.indirect_calls + b.indirect_calls
    assert merged.allocations == a.allocations + b.allocations
    assert merged.bytes_processed == a.bytes_processed + b.bytes_processed
    # With no fixed entry overhead, merged time is exactly the sum.
    flat = OpCosts(entry_overhead_ms=0.0)
    assert merged.time_ms(flat) == pytest.approx(
        a.time_ms(flat) + b.time_ms(flat), rel=1e-9
    )


# ----------------------------------------------------------------------
# Simulated time never runs backwards through the full import stack.
# ----------------------------------------------------------------------
def test_clock_monotonic_through_full_import():
    from repro.core import Arrangement
    from repro.workloads import build_stack, build_testbed

    testbed = build_testbed(seed=9)
    env = testbed.env
    stack = build_stack(testbed, Arrangement.ALL_REMOTE)
    stamps = []

    def watcher():
        for _ in range(200):
            stamps.append(env.now)
            yield env.timeout(5)

    env.process(watcher())
    run(
        env,
        stack.importer.import_binding(
            "DesiredService", HNSName("BIND-cs", "fiji.cs.washington.edu")
        ),
    )
    env.run(until=1100)
    assert stamps == sorted(stamps)
