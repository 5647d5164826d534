"""What one beacon costs the host, per broadcast and per listener, pinned.

A broadcast's price in simulated ms is the model; its price in Python
calls should follow what differs per listener — a datagram, a wire trip,
a delivery, one charge and the absorb — not re-derive what the broadcast
fixed (the route, the signature).  Counted with ``tests/cost.py``
(Python frames per round, heap entries exact), so the test reads the
same on any machine.
"""

import pytest

from repro.discovery import PresenceBeacon
from repro.discovery.messages import BEACON_PORT, SEGMENT_SECRET, _signature
from repro.resolution import DiscoveryPolicy
from repro.workloads.adhoc import build_adhoc_world
from tests.cost import window

#: The beacon and watchdog loops start, then sleep past every round.
QUIET = DiscoveryPolicy(beacon_period_ms=1e9)
ROUNDS = 200


def _beacon_round_trip(hosts, secret=SEGMENT_SECRET):
    """The cost of one signed beacon broadcast by host 0 to ``hosts - 1``
    listeners, all absorbed before the round ends — and the world, for
    its views and counters.  No loop wakes (the beacon period outlasts
    the run): the driver is the only process unless a listener starts
    one."""
    world = build_adhoc_world(3, policy=QUIET, host_count=hosts)
    sender = world.hosts[0]

    def step():
        beacon = PresenceBeacon.signed(
            sender.name, str(sender.address), 1, {"svc": "9000"}, secret
        )
        return world.udp.broadcast(sender, BEACON_PORT, beacon, 80, wait_ms=5.0)

    return window(world.env, step, ROUNDS), world


def test_a_broadcast_beacon_costs_what_differs_per_listener():
    eleven, world = _beacon_round_trip(12)
    one, _ = _beacon_round_trip(2)
    per_listener = (eleven.python_calls - one.python_calls) / 10
    print(
        f"11-target broadcast: {eleven.python_calls:.1f} python calls, "
        f"{eleven.c_calls:.1f} C calls, {eleven.heap_entries:g} heap entries; "
        f"per listener {per_listener:.1f} python calls, "
        f"{(eleven.c_calls - one.c_calls) / 10:.1f} C calls"
    )
    assert [len(beacon.cache) for beacon in world.beacons] == [0] + [1] * 11
    assert eleven.started == []
    # one wire callback (every listener hears it at one instant), a
    # charge per listener, the sender's wait
    assert (one.heap_entries, eleven.heap_entries) == (3, 13)
    # 19.0 per listener: a delivery, one charge and the absorb, with
    # the route and the signature fixed by the broadcast (a handler
    # process alone would add 6); its datagram, reply endpoint and
    # collector are filled in place (no Datagram, Endpoint or Event
    # constructor frames), and the charge's end runs no _free.  228.0
    # per 11-target round
    assert per_listener <= 19.5
    assert eleven.python_calls <= 230


def test_a_forged_beacon_is_a_counted_drop_at_every_listener():
    _, world = _beacon_round_trip(4, secret="not-the-segment's")
    # the warm rounds and the measured ones, three listeners each: every
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
