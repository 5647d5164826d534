"""What one beacon costs the host, per broadcast and per listener, pinned.

A broadcast's price in simulated ms is the model; its price in Python
calls should follow what differs per listener — a datagram, a wire trip,
a delivery, one charge and the absorb — not re-derive what the broadcast
fixed (the route, the signature).  Counted with the kernel budget's own
counter (``sys.setprofile`` ``call`` events per round, heap entries
exact), so the test reads the same on any machine.
"""

import pytest

from repro.discovery import PresenceBeacon
from repro.discovery.messages import BEACON_PORT, SEGMENT_SECRET, _signature
from repro.resolution import DiscoveryPolicy
from repro.workloads.adhoc import build_adhoc_world
from tests.sim.test_kernel_budget import _profiled

#: The beacon and watchdog loops start, then sleep past every round.
QUIET = DiscoveryPolicy(beacon_period_ms=1e9)


def _beacon_round_trip(hosts, secret=SEGMENT_SECRET):
    """(python calls, C calls, heap entries) of one signed beacon
    broadcast by host 0 to ``hosts - 1`` listeners, all absorbed before
    the round ends — and the world, for its views and counters.  No
    loop wakes (the beacon period outlasts the run): the driver is the
    only process unless a listener starts one."""
    world = build_adhoc_world(3, policy=QUIET, host_count=hosts)
    sender = world.hosts[0]

    def body(rounds):
        for _ in range(rounds):
            beacon = PresenceBeacon.signed(
                sender.name, str(sender.address), 1, {"svc": "9000"}, secret
            )
            yield from world.udp.broadcast(sender, BEACON_PORT, beacon, 80, wait_ms=5.0)

    return _profiled(world.env, body), world


def test_a_broadcast_beacon_costs_what_differs_per_listener():
    (calls_11, c_calls_11, entries_11), world = _beacon_round_trip(12)
    (calls_1, c_calls_1, entries_1), _ = _beacon_round_trip(2)
    per_listener = (calls_11 - calls_1) / 10
    print(
        f"11-target broadcast: {calls_11:.1f} python calls, {c_calls_11:.1f} C calls, "
        f"{entries_11:g} heap entries; per listener {per_listener:.1f} python calls, "
        f"{(c_calls_11 - c_calls_1) / 10:.1f} C calls"
    )
    assert [len(beacon.cache) for beacon in world.beacons] == [0] + [1] * 11
    # one wire callback (every listener hears it at one instant), a
    # charge per listener, the sender's wait; (3, 23) with a wire
    # Timeout per listener
    assert (entries_1, entries_11) == (3, 13)
    # 28.0 per listener (32.0 with a wire Timeout and an endpoint built
    # per listener, 54.0 with also a handler process, a route lookup and
    # a CRC each; the process alone is 6, so putting it back fails here)
    # and 328.0 per 11-target round (369.0, 616.0)
    assert per_listener <= 30
    assert calls_11 <= 345


def test_a_forged_beacon_is_a_counted_drop_at_every_listener():
    _, world = _beacon_round_trip(4, secret="not-the-segment's")
    # one warm round and the measured ones, three listeners each: every
    # one charged for, counted and dropped, none absorbed, none raised
    counters = world.env.stats.counters()
    assert counters["discovery.bad_signatures"] == counters["net.udp.delivered"] > 0
    assert [len(beacon.cache) for beacon in world.beacons] == [0] * 4


@pytest.mark.parametrize("listeners", [1, 11])
def test_signing_is_shared_by_the_sender_and_every_listener(listeners):
    _signature.cache_clear()
    _beacon_round_trip(listeners + 1)
    info = _signature.cache_info()
    assert info.misses == 1 and info.hits >= listeners
