"""DiscoveryCache semantics and the BeaconService loops."""

import pytest

from repro.discovery import BeaconService, DiscoveryCache, PresenceBeacon
from repro.discovery.messages import SEGMENT_SECRET
from repro.net import DatagramTransport, Internetwork
from repro.resolution import DiscoveryPolicy
from repro.sim import ConstantLatency, Environment

POLICY = DiscoveryPolicy(
    beacon_period_ms=500.0,
    entry_ttl_ms=10_000.0,
    watchdog_multiplier=3.0,
)


def beacon_from(owner, incarnation, names, address="128.95.1.9"):
    return PresenceBeacon.signed(
        owner=owner,
        address=address,
        incarnation=incarnation,
        names={k: str(v) for k, v in names.items()},
        secret=SEGMENT_SECRET,
    )


def run(env, gen):
    return env.run(until=env.process(gen))


def idle(env, ms):
    def sleeper():
        yield env.timeout(ms)

    run(env, sleeper())


# ----------------------------------------------------------------------
# Pure cache semantics (no network)
# ----------------------------------------------------------------------
@pytest.fixture
def cache():
    env = Environment(seed=5)
    return env, DiscoveryCache(env, POLICY)


def test_observe_then_lookup(cache):
    env, view = cache
    assert view.observe(beacon_from("lab1", 1, {"printer": 9001})) == 1
    entry = view.lookup("Printer")  # names are case-folded
    assert entry is not None
    assert (entry.owner, entry.value, entry.incarnation) == ("lab1", "9001", 1)


def test_last_writer_wins_on_incarnation(cache):
    env, view = cache
    view.observe(beacon_from("lab1", 2, {"printer": 9001}))
    # An older claim from a different owner loses the write race.
    view.observe(beacon_from("lab2", 1, {"printer": 9002}, address="128.95.1.10"))
    assert view.lookup("printer").owner == "lab1"
    assert env.stats.counters().get("discovery.lww_rejects", 0) == 1
    # An at-least-as-new claim takes the name over.
    view.observe(beacon_from("lab2", 2, {"printer": 9002}, address="128.95.1.10"))
    assert view.lookup("printer").owner == "lab2"


def test_stale_beacon_dropped_whole(cache):
    env, view = cache
    view.observe(beacon_from("lab1", 3, {"printer": 9001}))
    # A beacon from an earlier incarnation of the same owner is a
    # delayed packet from a previous life: ignored entirely.
    assert view.observe(beacon_from("lab1", 2, {"printer": 8888})) == 0
    assert view.lookup("printer").value == "9001"
    assert env.stats.counters().get("discovery.stale_beacons", 0) == 1


def test_fresh_beacon_retracts_missing_names(cache):
    env, view = cache
    evicted = []
    view.on_evict(lambda entry, reason: evicted.append((entry.name, reason)))
    view.observe(beacon_from("lab1", 1, {"printer": 9001, "scanner": 9002}))
    view.observe(beacon_from("lab1", 1, {"printer": 9001}))
    assert view.lookup("scanner") is None
    assert evicted == [("scanner", "retracted")]
    assert env.stats.counters().get("discovery.evict.retracted", 0) == 1


def test_ttl_expiry_evicts_on_lookup(cache):
    env, view = cache
    view.observe(beacon_from("lab1", 1, {"printer": 9001}))
    idle(env, POLICY.entry_ttl_ms + 1.0)
    assert view.lookup("printer") is None
    assert view.peek("printer") is None  # gone, not just hidden
    assert env.stats.counters().get("discovery.evict.ttl", 0) == 1


def test_watchdog_lapse_is_a_miss_but_not_an_eviction(cache):
    env, view = cache
    view.observe(beacon_from("lab1", 1, {"printer": 9001}))
    idle(env, POLICY.watchdog_deadline_ms() + 1.0)
    # Lapsed: not served, but left for the sweep's suspect-probe.
    assert view.lookup("printer") is None
    assert view.peek("printer") is not None
    assert env.stats.counters().get("discovery.watchdog_misses", 0) == 1
    assert env.stats.counters().get("discovery.evictions", 0) == 0


def test_ttl_only_policy_serves_through_watchdog_lapse():
    env = Environment(seed=5)
    ttl_only = DiscoveryPolicy(
        beacon_period_ms=500.0, entry_ttl_ms=10_000.0, watchdog_multiplier=0.0
    )
    view = DiscoveryCache(env, ttl_only)
    view.observe(beacon_from("lab1", 1, {"printer": 9001}))
    idle(env, 5_000.0)  # far past where the watchdog would have fired
    assert view.lookup("printer") is not None


def test_refresh_pushes_deadlines_out(cache):
    env, view = cache
    view.observe(beacon_from("lab1", 1, {"printer": 9001}))
    idle(env, POLICY.watchdog_deadline_ms() + 1.0)
    entry = view.peek("printer")
    view.refresh(entry)
    assert view.lookup("printer") is entry
    assert not entry.suspect


def test_membership_digest_tracks_view_content(cache):
    env, view = cache
    other = DiscoveryCache(env, POLICY)
    assert view.membership_digest() == other.membership_digest()  # both empty
    beacon = beacon_from("lab1", 1, {"printer": 9001})
    view.observe(beacon)
    assert view.membership_digest() != other.membership_digest()
    other.observe(beacon)
    assert view.membership_digest() == other.membership_digest()


# ----------------------------------------------------------------------
# BeaconService over the wire
# ----------------------------------------------------------------------
@pytest.fixture
def world():
    env = Environment(seed=11)
    net = Internetwork(env)
    seg = net.add_segment(latency=ConstantLatency(1.0, 0.0008))
    hosts = [net.add_host(f"lab{i}", seg) for i in range(4)]
    udp = DatagramTransport(net)
    return env, net, seg, hosts, udp


def test_beacons_populate_every_listener(world):
    env, net, seg, hosts, udp = world
    beacons = [BeaconService(h, udp, POLICY) for h in hosts]
    beacons[1].announce("printer", 9001)
    idle(env, 3 * POLICY.beacon_period_ms + 100.0)
    for service in beacons:  # including the owner's own view
        entry = service.cache.lookup("printer")
        assert entry is not None and entry.owner == "lab1"


def test_wrong_secret_beacons_are_rejected(world):
    env, net, seg, hosts, udp = world
    listener = BeaconService(hosts[0], udp, POLICY)
    rogue = BeaconService(hosts[1], udp, POLICY, secret="not-the-segment-key")
    rogue.announce("printer", 9001)
    idle(env, 3 * POLICY.beacon_period_ms + 100.0)
    assert listener.cache.lookup("printer") is None
    assert env.stats.counters().get("discovery.bad_signatures", 0) >= 1


def test_crashed_owner_is_probed_then_evicted(world):
    env, net, seg, hosts, udp = world
    beacons = [BeaconService(h, udp, POLICY) for h in hosts]
    beacons[1].announce("printer", 9001)
    idle(env, 3 * POLICY.beacon_period_ms + 100.0)
    hosts[1].crash()  # silent: no retraction reaches the segment
    # Watchdog deadline + one sweep + the probe timeout is enough.
    idle(env, POLICY.watchdog_deadline_ms() + 2 * POLICY.beacon_period_ms)
    assert beacons[0].cache.lookup("printer") is None
    counters = env.stats.counters()
    assert counters.get("discovery.probes", 0) >= 1
    assert counters.get("discovery.evict.probe_failed", 0) >= 1


def test_lost_beacons_alone_refresh_instead_of_evict(world):
    env, net, seg, hosts, udp = world
    listener = BeaconService(hosts[0], udp, POLICY)
    # The owner beacons far too rarely for the listener's watchdog, but
    # it is alive and answers the suspect-probe: refreshed, not dropped.
    quiet = DiscoveryPolicy(
        beacon_period_ms=60_000.0, entry_ttl_ms=120_000.0, watchdog_multiplier=3.0
    )
    owner = BeaconService(hosts[1], udp, quiet)
    owner.announce("printer", 9001)
    listener.cache.observe(
        beacon_from("lab1", 1, {"printer": 9001}, address=str(hosts[1].address))
    )
    idle(env, POLICY.watchdog_deadline_ms() + 2 * POLICY.beacon_period_ms)
    assert listener.cache.lookup("printer") is not None
    counters = env.stats.counters()
    assert counters.get("discovery.probe_refreshes", 0) >= 1
    assert counters.get("discovery.evictions", 0) == 0


def test_restart_bumps_incarnation_and_reconciles(world):
    env, net, seg, hosts, udp = world
    beacons = [BeaconService(h, udp, POLICY) for h in hosts]
    beacons[1].announce("printer", 9001)
    idle(env, 3 * POLICY.beacon_period_ms + 100.0)
    hosts[1].crash()
    idle(env, POLICY.watchdog_deadline_ms() + 2 * POLICY.beacon_period_ms)
    hosts[1].restart()
    beacons[1].restart()
    assert beacons[1].incarnation == 2
    idle(env, 3 * POLICY.beacon_period_ms + 100.0)
    entry = beacons[0].cache.lookup("printer")
    assert entry is not None and entry.incarnation == 2


def test_retract_propagates_on_next_beacon(world):
    env, net, seg, hosts, udp = world
    beacons = [BeaconService(h, udp, POLICY) for h in hosts]
    beacons[1].announce("printer", 9001)
    idle(env, 3 * POLICY.beacon_period_ms + 100.0)
    assert beacons[1].retract("printer")
    idle(env, 2 * POLICY.beacon_period_ms + 100.0)
    assert beacons[0].cache.lookup("printer") is None
    assert env.stats.counters().get("discovery.evict.retracted", 0) >= 1
