"""DiscoveryNsm: view hits, re-query fallback, and liveness discipline."""

import pytest

from repro.core import HNSName
from repro.discovery import BeaconService, DiscoveryNsm
from repro.net import DatagramTransport, Internetwork
from repro.resolution import DiscoveryPolicy, FastPathPolicy
from repro.sim import ConstantLatency, Environment

POLICY = DiscoveryPolicy(
    beacon_period_ms=500.0,
    entry_ttl_ms=10_000.0,
    watchdog_multiplier=3.0,
)

PRINTER = HNSName("adhoc", "printer")


def run(env, gen):
    return env.run(until=env.process(gen))


def idle(env, ms):
    def sleeper():
        yield env.timeout(ms)

    run(env, sleeper())


def make_world(policy=POLICY, seed=23, host_count=4):
    env = Environment(seed=seed)
    net = Internetwork(env)
    seg = net.add_segment(latency=ConstantLatency(1.0, 0.0008))
    hosts = [net.add_host(f"lab{i}", seg) for i in range(host_count)]
    udp = DatagramTransport(net)
    beacons = [BeaconService(h, udp, policy) for h in hosts]
    return env, hosts, beacons


def test_view_hit_serves_locally(seed=23):
    env, hosts, beacons = make_world()
    beacons[1].announce("printer", 9001)
    idle(env, 3 * POLICY.beacon_period_ms + 100.0)
    nsm = DiscoveryNsm(beacons[0])
    result = run(env, nsm.query(PRINTER))
    assert result.value["owner"] == "lab1"
    assert result.value["port"] == "9001"
    assert result.value["incarnation"] == 1
    counters = env.stats.counters()
    assert counters.get("discovery.view_hits", 0) == 1
    assert counters.get("discovery.requeries", 0) == 0


def test_cold_miss_falls_back_to_broadcast_requery():
    env, hosts, beacons = make_world()
    beacons[1].announce("printer", 9001)
    # Query before the first beacon period: the view is still empty,
    # but the owner's co-resident NameOwnerService answers a broadcast.
    nsm = DiscoveryNsm(beacons[0])
    result = run(env, nsm.query(PRINTER))
    assert result.value["owner"] == "lab1"
    assert result.value["incarnation"] == 0  # a one-shot answer carries none
    assert env.stats.counters().get("discovery.requeries", 0) == 1


def test_result_ttl_never_exceeds_liveness_deadline():
    env, hosts, beacons = make_world()
    beacons[1].announce("printer", 9001)
    idle(env, 3 * POLICY.beacon_period_ms + 100.0)
    nsm = DiscoveryNsm(beacons[0])
    run(env, nsm.query(PRINTER))
    key = nsm._cache_key(PRINTER, {})
    entry = nsm.cache._entries.get(key)  # type: ignore[union-attr]
    assert entry is not None
    view_entry = beacons[0].cache.lookup("printer")
    assert entry.expires_at <= view_entry.watchdog_deadline + 1e-9


def test_liveness_eviction_invalidates_resolver_cache():
    env, hosts, beacons = make_world()
    beacons[1].announce("printer", 9001)
    idle(env, 3 * POLICY.beacon_period_ms + 100.0)
    nsm = DiscoveryNsm(beacons[0])
    run(env, nsm.query(PRINTER))  # warm the resolver cache
    hosts[1].crash()
    idle(env, POLICY.watchdog_deadline_ms() + 2 * POLICY.beacon_period_ms)
    assert env.stats.counters().get("discovery.nsm_invalidations", 0) >= 1
    # The dead binding is gone everywhere: a fresh query re-queries the
    # wire, gets silence, and fails — it never serves the corpse.
    with pytest.raises(LookupError):
        run(env, nsm.query(PRINTER))


def test_lapsed_entry_mid_flight_coalesced_queries_fail_over():
    """The watchdog-vs-TTL race, mid-flight: an entry whose beacons
    lapse while a coalesced FindNSM is outstanding must fail over to
    the broadcast re-query (which correctly finds silence), not serve
    the evicted binding via single-flight or serve-stale."""
    env, hosts, beacons = make_world()
    beacons[1].announce("printer", 9001)
    idle(env, 3 * POLICY.beacon_period_ms + 100.0)
    nsm = DiscoveryNsm(beacons[0], fast_path=FastPathPolicy())
    run(env, nsm.query(PRINTER))  # warm: view hit, resolver cache filled
    hosts[1].crash()
    # Advance into the lapse window: past the watchdog deadline (the
    # resolver-cache entry expired with it — its TTL was capped to the
    # liveness deadline) but before the sweep has evicted the entry.
    view_entry = beacons[0].cache.peek("printer")
    assert view_entry is not None
    idle(env, max(0.0, view_entry.watchdog_deadline - env.now) + 1.0)
    assert beacons[0].cache.peek("printer") is not None  # not yet swept
    assert beacons[0].cache.lookup("printer") is None  # but lapsed

    outcomes = []

    def one_query():
        try:
            result = yield from nsm.query(PRINTER)
        except LookupError:
            outcomes.append(None)
        else:
            outcomes.append(result.value["owner"])

    def crowd():
        yield env.all_of([env.process(one_query()) for _ in range(6)])

    requeries_before = env.stats.counters().get("discovery.requeries", 0)
    run(env, crowd())
    assert outcomes == [None] * 6, f"served a dead binding: {outcomes}"
    # Single-flight held: one leader re-queried the wire, the five
    # followers parked on its flight and saw the same failure.
    requeries = env.stats.counters().get("discovery.requeries", 0)
    assert requeries - requeries_before == 1


def test_joins_the_confederation_via_find_nsm_and_stub():
    """Registered in the meta zone with port 0, the ad-hoc NSM is
    returned by HNS.find_nsm as a local binding and called through
    NsmStub unchanged."""
    from repro.core.admin import HnsAdministrator
    from repro.core.nsm import NsmStub
    from repro.workloads.adhoc import ADHOC_CONTEXT
    from repro.workloads.scenarios import SRV_CONTEXT, build_testbed

    testbed = build_testbed(seed=41)
    env = testbed.env
    policy = DiscoveryPolicy(beacon_period_ms=500.0, watchdog_multiplier=3.0)
    client_beacon = BeaconService(testbed.client, testbed.udp, policy)
    june_beacon = BeaconService(testbed.june, testbed.udp, policy)
    june_beacon.announce("buildcache", 9100)
    admin = HnsAdministrator(testbed.make_metastore(testbed.meta_host))
    nsm = DiscoveryNsm(client_beacon)

    def register():
        yield from admin.register_name_service(
            "adhoc", "adhoc", testbed.client.name, 0
        )
        yield from admin.register_context(ADHOC_CONTEXT, "adhoc")
        yield from admin.register_nsm(
            nsm_name=nsm.name,
            query_class="AdHocService",
            name_service="adhoc",
            host_name=f"{testbed.client.name}.cs.washington.edu",
            host_context=SRV_CONTEXT,
            program=f"nsm.{nsm.name}",
            suite="sunrpc",
            port=0,
        )

    run(env, register())
    hns = testbed.make_hns(testbed.client)
    hns.link_local_nsm(nsm)
    stub = NsmStub(testbed.client)
    stub.link_local(nsm)
    idle(env, 2_000.0)  # let beacons seed the view

    def resolve():
        binding = yield from hns.find_nsm(
            HNSName(ADHOC_CONTEXT, "buildcache"), "AdHocService"
        )
        result = yield from stub.call(binding, HNSName(ADHOC_CONTEXT, "buildcache"))
        return result

    result = run(env, resolve())
    assert result.value["owner"] == testbed.june.name
    assert result.value["port"] == "9100"
