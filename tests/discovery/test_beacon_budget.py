"""What one beacon costs the host, per broadcast and per listener.

A broadcast's price in simulated ms is the model; its price in Python
calls should follow what differs per listener — a datagram, a wire trip,
a delivery, one charge, its own verify and the absorb — not re-derive
what the broadcast fixed (the route, the segment's loss rule, the
signature, the policy's deadlines).  The figures are ``COSTS``'
``beacon/*`` rows (``tests/test_costs.py``).
"""

import dataclasses
import functools

import pytest

from repro.discovery import PresenceBeacon
from repro.discovery.messages import BEACON_PORT, SEGMENT_SECRET, _signature
from repro.net.addresses import NetworkAddress
from repro.resolution import DiscoveryPolicy
from repro.sim.stats import StatsRegistry
from repro.workloads.adhoc import build_adhoc_world
from tests.cost import PROBES, probe, window

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
            sender.name, sender.address.dotted, 1, {"svc": "9000"}, secret
        )
        return world.udp.broadcast(sender, BEACON_PORT, beacon, 80, wait_ms=5.0)

    return window(world.env, step, ROUNDS), world


@functools.lru_cache(maxsize=None)
def _broadcast(listeners):
    cost, world = _beacon_round_trip(listeners + 1)
    assert [len(beacon.cache.entries()) for beacon in world.beacons] == [0] + [1] * listeners
    return cost


@probe("beacon/11-targets", memo=True)
def _eleven_targets():
    """One wire callback (every listener hears it at one instant), a
    charge per listener, the sender's wait."""
    return _broadcast(11)


@probe("beacon/per-listener", memo=True)
def _per_listener():
    """An 11-target round less a 1-target one, per listener: its
    datagram (endpoint, reply endpoint), its delay drawn from the
    segment's latency model, the delivery, one charge, its own verify
    (the signature a memo hit) and the absorb (the entry and the
    delivered and observed counts).  The route, the drop rule of a whole
    loss-free segment, the host table, the clock and the policy's
    deadlines cost no frame; a handler process alone would add 6, and
    the charge's end runs no ``_free``."""
    eleven, one = _broadcast(11), _broadcast(1)
    return dataclasses.replace(
        eleven,
        python_calls=(eleven.python_calls - one.python_calls) / 10,
        c_calls=(eleven.c_calls - one.c_calls) / 10,
        heap_entries=(eleven.heap_entries - one.heap_entries) / 10,
    )


def test_a_broadcast_beacon_costs_what_differs_per_listener():
    """Every listener absorbs the beacon, and none starts a process."""
    assert _broadcast(11).started == _broadcast(1).started == []


def test_a_forged_beacon_is_a_counted_drop_at_every_listener():
    _, world = _beacon_round_trip(4, secret="not-the-segment's")
    # the warm rounds and the measured ones, three listeners each: every
    # one charged for, counted and dropped, none absorbed, none raised
    counters = world.env.stats.counters()
    assert counters["discovery.bad_signatures"] == counters["net.udp.delivered"] > 0
    assert [len(beacon.cache.entries()) for beacon in world.beacons] == [0] * 4


@pytest.mark.parametrize("listeners", [1, 11])
@pytest.mark.memo
def test_signing_is_shared_by_the_sender_and_every_listener(listeners):
    _signature.cache_clear()
    _beacon_round_trip(listeners + 1)
    info = _signature.cache_info()
    assert info.misses == 1 and info.hits >= listeners


def _sweep(entries):
    """One pass over a view where nothing lapsed: the pass's own frame and
    one read of the policy's liveness, whatever the view holds.  The
    table is read directly and the clock and liveness once per pass, so
    a quiet entry is two C calls (its key and its get)."""
    world = build_adhoc_world(3, policy=QUIET, host_count=entries + 1)
    listener = world.beacons[0]
    for index, owner in enumerate(world.hosts[1:]):
        listener.cache.observe(
            PresenceBeacon.signed(
                owner.name, str(owner.address), 1, {f"svc{index}": "9000"}
            )
        )
    cost = window(world.env, listener._sweep, ROUNDS)
    assert len(listener.cache.entries()) == entries
    return cost


for _entries in (1, 11):
    probe(f"beacon/sweep-{_entries}")(functools.partial(_sweep, _entries))


@pytest.mark.parametrize("entries", [1, 11])
def test_a_watchdog_sweep_pass_costs_nothing_per_quiet_entry(entries):
    assert PROBES[f"beacon/sweep-{entries}"]().started == []


@probe("beacon/loop", memo=True)
def _beacon_loop():
    """A lone host's beacon loop, woken once per (jittered) period: a
    beacon's signing and its broadcast to nobody, the watchdog's sweep,
    and the two loops' wake-ups and jittered periods."""
    world = build_adhoc_world(3, host_count=1)
    period = world.beacons[0].policy.beacon_period_ms
    cost = window(world.env, lambda: world.env.timeout(period), ROUNDS)
    assert world.env.stats.counter("discovery.beacons_sent").value > 0.9 * ROUNDS
    return cost


def test_a_beacon_loop_round_reads_what_the_host_already_holds():
    """The beacon's source text is the address's own field and the sent
    count is bound once, so a round enters neither
    ``NetworkAddress.__str__`` nor the stats registry."""
    cost = PROBES["beacon/loop"]()
    assert cost.calls_to(NetworkAddress.__str__) == 0
    assert cost.calls_to(StatsRegistry.counter) == 0
