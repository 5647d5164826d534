"""Partition/heal at the discovery layer: diverge, then reconcile."""

from repro.discovery import BeaconService
from repro.net import DatagramTransport, Internetwork
from repro.resolution import DiscoveryPolicy
from repro.sim import ConstantLatency, Environment


def idle(env, ms):
    def sleeper():
        yield env.timeout(ms)

    env.run(until=env.process(sleeper()))


def test_views_diverge_under_partition_and_reconcile_after_heal():
    """After a heal, views reconcile as soon as every partitioned-away
    owner beacons again — so convergence time scales with the beacon
    period, and both sides end digest-identical without any
    administered authority."""
    converged_ms = [heal_convergence_ms(period) for period in (500.0, 2_000.0)]
    # Faster beacons reconverge no slower than slow ones.
    assert converged_ms[0] <= converged_ms[1]


def heal_convergence_ms(beacon_period_ms):
    """Partition four beaconing hosts two and two, heal, and return the
    simulated ms from the heal until every membership digest agrees."""
    policy = DiscoveryPolicy(
        beacon_period_ms=beacon_period_ms,
        entry_ttl_ms=60_000.0,
        watchdog_multiplier=3.0,
    )
    env = Environment(seed=19)
    net = Internetwork(env)
    seg = net.add_segment(latency=ConstantLatency(1.0, 0.0008))
    hosts = [net.add_host(f"lab{i}", seg) for i in range(4)]
    udp = DatagramTransport(net)
    beacons = [BeaconService(h, udp, policy) for h in hosts]
    beacons[0].announce("editor", 9001)
    beacons[2].announce("printer", 9002)

    def digests(services):
        return {s.cache.membership_digest() for s in services}

    idle(env, 3 * policy.beacon_period_ms + 100.0)
    assert len(digests(beacons)) == 1  # whole segment converged

    seg.partition(hosts[:2], hosts[2:])
    # Long enough for each side's watchdog to evict the other side.
    idle(env, policy.watchdog_deadline_ms() + 3 * policy.beacon_period_ms)
    left, right = digests(beacons[:2]), digests(beacons[2:])
    assert len(left) == 1 and len(right) == 1  # each side internally agrees
    assert left != right  # but the sides disagree
    assert beacons[0].cache.lookup("printer") is None  # evicted across the split
    assert beacons[0].cache.lookup("editor") is not None  # own side survives
    assert env.stats.counters().get("net.partition.drops", 0) > 0

    seg.heal()
    healed_at = env.now
    while len(digests(beacons)) != 1:
        idle(env, 50.0)
        assert env.now - healed_at <= 3 * policy.beacon_period_ms + 200.0
    # Fully reconciled, no authority needed.
    assert beacons[0].cache.lookup("printer") is not None
    return env.now - healed_at
