"""Membership agrees at rest: after the last fault, every view is the set
of live owners' names.

Each ad-hoc scenario's world is rebuilt with the public builders and
the parameters its registered scenario uses, driven through its faults
(silent crash and restart, a partition and its heal), then run with no
further fault past the largest entry TTL and watchdog deadline, a sweep
and a probe timeout.  At that point every up host's live view — the
entries a lookup would serve — must equal {(name, owner)} over the
names the up owners announce: a stale owner left behind, a live one
missing, or a name held by the wrong owner is a disagreement.  The
flash crowd's eight resolutions read the views and add nothing to them,
so its world is the testbed's two beacon hosts without the crowd.
"""

import typing

from repro.discovery import BeaconService, PresenceBeacon
from repro.discovery.beacon import PROBE_TIMEOUT_MS
from repro.resolution import DiscoveryPolicy
from repro.workloads.adhoc import build_adhoc_world, drive_churn
from repro.workloads.scenarios import build_testbed

SEED = 0


def quiesce(env, beacons: typing.Sequence[BeaconService]) -> None:
    """Run past every deadline a live view could still be waiting on."""
    policy = beacons[0].policy
    env.run(
        until=env.now
        + max(policy.entry_ttl_ms, policy.watchdog_deadline_ms())
        + policy.beacon_period_ms
        + PROBE_TIMEOUT_MS
    )


def disagreements(beacons: typing.Sequence[BeaconService]) -> typing.List[str]:
    """Each up host whose live view differs from the up owners' names."""
    up = [beacon for beacon in beacons if beacon.host.is_up]
    announced = {
        (name.lower(), beacon.host.name) for beacon in up for name in beacon._names
    }
    faults = []
    for beacon in up:
        cache = beacon.cache
        view = {
            (entry.name.lower(), entry.owner)
            for entry in cache.entries()
            if cache.remaining_ms(entry) > 0
        }
        if view != announced:
            faults.append(
                f"{beacon.host.name}: stale {sorted(view - announced)}, "
                f"missing {sorted(announced - view)}"
            )
    return faults


def churn_world():
    """``adhoc_churn``: owners crash silently and return, a client resolves."""
    world = build_adhoc_world(
        SEED,
        policy=DiscoveryPolicy(
            beacon_period_ms=500.0, entry_ttl_ms=10_000.0, watchdog_multiplier=3.0
        ),
        host_count=5,
    )
    metrics = drive_churn(
        world,
        owners=2,
        duration_ms=12_000.0,
        churn_interval_ms=4_000.0,
        down_ms=3_000.0,
        query_interval_ms=500.0,
    )
    assert metrics["vanish_events"] >= 1
    return world.env, world.beacons


def partition_world():
    """``adhoc_partition_heal``: converge, split for 6 s, heal for 6 s."""
    world = build_adhoc_world(
        SEED,
        policy=DiscoveryPolicy(
            beacon_period_ms=500.0, entry_ttl_ms=30_000.0, watchdog_multiplier=3.0
        ),
        host_count=6,
    )
    env = world.env
    world.beacons[1].announce("editor", 9_001)
    world.beacons[4].announce("printer", 9_004)
    env.run(until=3_000.0)
    world.segment.partition(world.hosts[:3], world.hosts[3:])
    env.run(until=9_000.0)
    assert env.stats.counters()["net.partition.drops"] > 0
    world.segment.heal()
    env.run(until=15_000.0)
    return env, world.beacons


def flash_crowd_world():
    """``adhoc_flash_crowd``: two beacon hosts on the full testbed."""
    testbed = build_testbed(seed=SEED)
    policy = DiscoveryPolicy(beacon_period_ms=500.0, watchdog_multiplier=3.0)
    beacons = [
        BeaconService(testbed.client, testbed.udp, policy),
        BeaconService(testbed.june, testbed.udp, policy),
    ]
    beacons[1].announce("buildcache", 9_100)
    testbed.env.run(until=2_000.0)
    return testbed.env, beacons


def test_churn_membership_agrees_at_rest():
    env, beacons = churn_world()
    quiesce(env, beacons)
    assert disagreements(beacons) == []


def test_partition_heal_membership_agrees_at_rest():
    env, beacons = partition_world()
    quiesce(env, beacons)
    assert disagreements(beacons) == []


def test_flash_crowd_membership_agrees_at_rest():
    env, beacons = flash_crowd_world()
    quiesce(env, beacons)
    assert disagreements(beacons) == []


def test_a_stale_entry_for_a_crashed_owner_is_a_disagreement():
    env, beacons = partition_world()
    quiesce(env, beacons)
    ghost, listener = beacons[0].host, beacons[2]
    ghost.crash()
    listener.cache.observe(
        PresenceBeacon.signed(ghost.name, str(ghost.address), 9, {"ghost": "1"})
    )
    assert disagreements(beacons) == [
        f"{listener.host.name}: stale [('ghost', '{ghost.name}')], missing []"
    ]
