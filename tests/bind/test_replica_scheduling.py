"""Replica-aware meta reads: adaptive selection, hedging, breaker skip."""

import pytest

from repro.bind import BindResolver, BindServer, ReplicaScheduler, ResourceRecord, RRType, Zone
from repro.bind.replica import BREAKER_THRESHOLD, HEDGE_MAX_DELAY_MS, HEDGE_MIN_SAMPLES
from repro.harness.calibration import DEFAULT_CALIBRATION
from repro.net import DatagramTransport, Internetwork
from repro.net.addresses import Endpoint, NetworkAddress
from repro.resolution import PolicySet, ReplicaPolicy
from repro.sim import ConstantLatency, Environment
from tests.bind.stall import StallServer

CAL = DEFAULT_CALIBRATION


def rec(name, text, ttl=3_600_000):
    return ResourceRecord.text_record(name, text, rtype=RRType.UNSPEC, ttl=ttl)


def run(env, gen):
    return env.run(until=env.process(gen))


# ----------------------------------------------------------------------
# Policy validation
# ----------------------------------------------------------------------
def test_policy_defaults_enable_everything():
    assert ReplicaPolicy().enabled


def test_disabled_policy_is_inert():
    assert ReplicaPolicy.disabled() == ReplicaPolicy(enabled=False)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"hedge_quantile": 0.5},
        {"adaptive": False},
        {"breaker_threshold": 1},
    ],
)
def test_policy_rejects_bad_values(kwargs):
    # One switch: the mechanisms are not tuned or enabled one by one.
    with pytest.raises(TypeError):
        ReplicaPolicy(**kwargs)


# ----------------------------------------------------------------------
# Scheduler unit behaviour (no network)
# ----------------------------------------------------------------------
def endpoints(n):
    return [Endpoint(NetworkAddress(f"10.0.0.{i + 1}"), 530) for i in range(n)]


def test_scheduler_prefers_measured_fast_replica():
    env = Environment(seed=1)
    eps = endpoints(2)
    sched = ReplicaScheduler(env, eps, name="r")
    fast, slow = sched.states
    for _ in range(6):
        sched.record_start(fast)
        sched.record_success(fast, 5.0, won=True)
        sched.record_start(slow)
        sched.record_success(slow, 200.0, won=True)
    # p2c always compares the only two replicas; the fast one leads.
    for _ in range(10):
        assert sched.plan()[0] is fast


def test_scheduler_inflight_penalty_sheds_load():
    env = Environment(seed=2)
    sched = ReplicaScheduler(env, endpoints(2), name="r")
    a, b = sched.states
    sched.record_start(a)
    sched.record_success(a, 5.0, won=True)
    sched.record_start(b)
    sched.record_success(b, 10.0, won=True)
    # a is faster, but pile requests onto it (INFLIGHT_PENALTY_MS each)
    # and b takes over.
    for _ in range(3):
        sched.record_start(a)
    assert sched.plan()[0] is b


def test_scheduler_skips_open_breaker():
    env = Environment(seed=3)
    sched = ReplicaScheduler(env, endpoints(2), name="r")
    dead, live = sched.states
    for _ in range(BREAKER_THRESHOLD):
        sched.record_start(dead)
        sched.record_failure(dead, 100.0)
    assert dead.breaker.state == "open"
    plan = sched.plan()
    assert plan == [live]
    assert env.stats.counters()[f"bind.replica.{dead.label}.skipped"] == 1


def test_scheduler_falls_back_when_all_breakers_open():
    env = Environment(seed=4)
    sched = ReplicaScheduler(env, endpoints(2), name="r")
    for state in sched.states:
        for _ in range(BREAKER_THRESHOLD):
            sched.record_start(state)
            sched.record_failure(state, 100.0)
    assert all(state.breaker.state == "open" for state in sched.states)
    # Refusing outright would turn a brown-out into a black-out: every
    # replica is still offered.
    plan = sched.plan()
    assert len(plan) == 2 and set(plan) == set(sched.states)


def test_hedge_delay_needs_samples_then_tracks_quantile():
    env = Environment(seed=5)
    sched = ReplicaScheduler(env, endpoints(2), name="r")
    state = sched.states[0]
    for count, latency in enumerate((10.0,) * 19 + (500.0,)):
        # Unarmed until HEDGE_MIN_SAMPLES answers have been seen.
        assert (sched.hedge_delay_ms() is None) == (count < HEDGE_MIN_SAMPLES)
        sched.record_start(state)
        sched.record_success(state, latency, won=True)
    delay = sched.hedge_delay_ms()
    # HEDGE_QUANTILE (0.95) of {10 x19, 500}: near the top of the fast cluster.
    assert delay is not None
    assert 10.0 <= delay <= 500.0
    # Clamping: the ceiling wins over a slower observed quantile.
    clamped = ReplicaScheduler(env, endpoints(2), name="r2")
    for _ in range(HEDGE_MIN_SAMPLES):
        clamped.record_start(clamped.states[0])
        clamped.record_success(
            clamped.states[0], 3 * HEDGE_MAX_DELAY_MS, won=True
        )
    assert clamped.hedge_delay_ms() == HEDGE_MAX_DELAY_MS


def test_scheduler_mirrors_counters_and_ewma_timer():
    env = Environment(seed=6)
    sched = ReplicaScheduler(env, endpoints(1), name="r")
    state = sched.states[0]
    sched.record_start(state, hedge=False)
    sched.record_success(state, 10.0, won=True)
    sched.record_start(state, hedge=True)
    sched.record_success(state, 20.0, won=False)
    sched.record_start(state)
    sched.record_failure(state, 100.0)
    label = state.label
    counters = env.stats.counters()
    assert counters[f"bind.replica.{label}.requests"] == 3
    assert counters[f"bind.replica.{label}.hedges"] == 1
    assert counters[f"bind.replica.{label}.wins"] == 1
    assert counters[f"bind.replica.{label}.errors"] == 1
    # EWMA after 10, 20, 100 with alpha 0.3: 10 -> 13 -> 39.1
    assert state.ewma_ms == pytest.approx(39.1)


# ----------------------------------------------------------------------
# End-to-end: a resolver over two replicas
# ----------------------------------------------------------------------
def make_cluster(replica_policy, seed=41, primary_cost=4.8, secondary_cost=4.8):
    env = Environment(seed=seed)
    net = Internetwork(env)
    seg = net.add_segment(
        latency=ConstantLatency(CAL.wire_base_ms, CAL.wire_per_byte_ms)
    )
    client = net.add_host("client", seg)
    primary_host = net.add_host("ns-primary", seg)
    secondary_host = net.add_host("ns-secondary", seg)

    def make_zone():
        zone = Zone("hns")
        zone.add(rec("a.ctx.hns", "ns=one"))
        return zone

    primary = StallServer(
        primary_host, zones=[make_zone()], lookup_cost_ms=primary_cost
    )
    secondary = BindServer(
        secondary_host, zones=[make_zone()], lookup_cost_ms=secondary_cost
    )
    primary_ep = primary.listen()
    secondary_ep = secondary.listen()
    udp = DatagramTransport(net, retries=0, retry_timeout_ms=100)
    resolver = BindResolver(
        client,
        udp,
        primary_ep,
        secondaries=[secondary_ep],
        policies=PolicySet(replica=replica_policy),
        name="r",
    )
    return env, resolver, primary, secondary, primary_host


def lookup_once(env, resolver):
    start = env.now

    def go():
        records = yield from resolver.lookup("a.ctx.hns", RRType.UNSPEC)
        return records

    records = run(env, go())
    return records, env.now - start


def test_adaptive_selection_avoids_slow_replica():
    env, resolver, primary, secondary, _ = make_cluster(
        ReplicaPolicy(),
        primary_cost=200.0,
        secondary_cost=4.8,
    )
    for _ in range(20):
        records, _elapsed = lookup_once(env, resolver)
        assert records[0].text == "ns=one"
    counters = env.stats.counters()

    def first_tries(label):
        # Hedges are second tries: the slow primary draws them once the
        # window arms, and they never win.
        return counters.get(f"bind.replica.{label}.requests", 0) - counters.get(
            f"bind.replica.{label}.hedges", 0
        )

    to_primary = first_tries(str(resolver.server))
    to_secondary = first_tries(str(resolver.secondaries[0]))
    assert to_primary + to_secondary >= 20
    # A few exploration probes hit the slow primary; the bulk does not.
    assert to_secondary >= 15
    assert to_primary <= 5
    assert counters[f"bind.replica.{resolver.secondaries[0]}.wins"] >= 15


def test_hedging_rescues_a_stalled_primary():
    # A slower secondary keeps the adaptive scheduler asking the primary
    # first once both have been measured.
    env, resolver, primary, secondary, _ = make_cluster(
        ReplicaPolicy(), secondary_cost=10.0
    )
    # Warm the latency window (one exploration probe of each replica).
    for _ in range(HEDGE_MIN_SAMPLES):
        _records, elapsed = lookup_once(env, resolver)
    baseline = elapsed
    primary.stall_ms = 500.0
    records, elapsed = lookup_once(env, resolver)
    assert records[0].text == "ns=one"
    # The hedge to the secondary answers long before the stalled
    # primary would have.
    assert elapsed < 100.0
    counters = env.stats.counters()
    assert counters[f"bind.r.hedges"] >= 1
    secondary_label = str(resolver.secondaries[0])
    assert counters[f"bind.replica.{secondary_label}.wins"] >= 1
    assert elapsed < baseline + 60.0


def test_ordered_failover_eats_the_stall_without_hedging():
    env, resolver, primary, secondary, _ = make_cluster(ReplicaPolicy.disabled())
    for _ in range(6):
        lookup_once(env, resolver)
    primary.stall_ms = 500.0
    _records, elapsed = lookup_once(env, resolver)
    # Static failover waits out the full transport timeout before it
    # even tries the secondary; hedging answers in a fraction of that.
    assert elapsed >= 100.0


def test_breaker_skip_spares_cold_lookups_the_timeout():
    env, resolver, primary, secondary, primary_host = make_cluster(
        ReplicaPolicy(), secondary_cost=60.0
    )
    for _ in range(2):  # one exploration probe each: the primary is faster
        lookup_once(env, resolver)
    primary_host.crash()
    primary_label = str(resolver.server)
    # Until its breaker trips, the dead primary's EWMA still undercuts
    # the slow secondary, so each lookup pays the transport timeout
    # before it fails over.
    for failures in range(1, BREAKER_THRESHOLD + 1):
        records, elapsed = lookup_once(env, resolver)
        assert records[0].text == "ns=one"
        assert elapsed >= 100.0
        counters = env.stats.counters()
        assert counters[f"bind.replica.{primary_label}.errors"] == failures
    # The next lookup skips the open breaker: no timeout in its path.
    records, elapsed = lookup_once(env, resolver)
    assert records[0].text == "ns=one"
    assert elapsed < 100.0
    counters = env.stats.counters()
    assert counters[f"bind.replica.{primary_label}.skipped"] >= 1
    assert counters[f"bind.replica.{primary_label}.errors"] == BREAKER_THRESHOLD


def test_static_failover_pays_the_timeout_every_time():
    env, resolver, primary, secondary, primary_host = make_cluster(
        ReplicaPolicy.disabled()
    )
    primary_host.crash()
    for _ in range(2):
        records, elapsed = lookup_once(env, resolver)
        assert records[0].text == "ns=one"
        assert elapsed >= 100.0  # the dead primary taxes every lookup


def test_disabled_policy_reproduces_legacy_behaviour_exactly():
    """`ReplicaPolicy.disabled()` must be bit-for-bit the prototype's
    static failover: the clock and counters below were recorded from the
    no-policy (``replica=None``) path before that spelling was retired."""
    env, resolver, primary, secondary, primary_host = make_cluster(
        ReplicaPolicy.disabled(), seed=47
    )
    for _ in range(5):
        lookup_once(env, resolver)
    primary_host.crash()
    lookup_once(env, resolver)
    primary_host.restart()
    for _ in range(3):
        lookup_once(env, resolver)
    assert env.now == 176.45310000000003
    assert env.stats.counters() == {
        "bind.r.remote_lookups": 9,
        "net.udp.delivered": 9,
        "bind.bind@ns-primary.requests": 8,
        "bind.bind@ns-primary.queries": 8,
        "net.udp.retransmits": 1,
        "bind.r.failovers": 1,
        "bind.bind@ns-secondary.requests": 1,
        "bind.bind@ns-secondary.queries": 1,
    }


def test_disabled_policy_has_no_scheduler():
    env, resolver, *_ = make_cluster(ReplicaPolicy.disabled())
    assert resolver._scheduler is None
    env2, resolver2, *_ = make_cluster(ReplicaPolicy())
    assert resolver2._scheduler is not None
