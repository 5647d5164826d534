"""The ResolutionPolicy degradation ladder, end to end.

Fresh cache hit -> one exchange with the replica set -> stale cache
hit, the Import trying again with jittered backoff, and NXDOMAIN answers
cached: each rung is exercised against the full testbed with real
crashes, restarts, and wire loss.
"""

import dataclasses

import pytest

from repro.bind import BindServer, Zone
from repro.core import Arrangement, ContextNotFound, HNSName
from repro.harness.calibration import DEFAULT_CALIBRATION
from repro.harness.grids import percentile
from repro.net import DatagramTransport, TransportTimeout
from repro.resolution import (
    DEFAULT_RESOLUTION_POLICY,
    FastPathPolicy,
    PolicySet,
    ReplicaPolicy,
    ResolutionPolicy,
)
from repro.workloads import build_stack, build_testbed
from repro.workloads.scenarios import BIND_CONTEXT, BIND_NS

FIJI = HNSName("BIND-cs", "fiji.cs.washington.edu")


def run(env, gen):
    return env.run(until=env.process(gen))


def sleep(env, ms):
    def idle():
        yield env.timeout(ms)

    run(env, idle())


# ----------------------------------------------------------------------
# Retry with backoff: the Import tries again, nothing under it does
# ----------------------------------------------------------------------
def import_fiji(env, stack):
    return run(env, stack.importer.import_binding("DesiredService", FIJI))


def test_meta_lookup_retries_through_server_restart():
    """A cold Import survives a meta outage shorter than its retry span:
    the meta lookup fails its one exchange, and the Import tries again."""
    testbed = build_testbed(seed=11)
    env = testbed.env
    stack = build_stack(testbed, Arrangement.ALL_LOCAL)
    testbed.meta_host.crash()

    def medic():
        # Revive the meta server once the importer has started retrying,
        # so the outage is mid-Import by construction.
        while env.stats.counter("hrpc.import_retries").value < 1:
            yield env.timeout(100.0)
        testbed.meta_host.restart()

    env.process(medic())
    assert import_fiji(env, stack).endpoint.port == 9999
    assert env.stats.counter("hrpc.import_retries").value >= 1


def test_meta_retry_exhaustion_raises_last_transient_error():
    """A dead meta server still fails the Import -- after exactly
    policy.attempts tries, each one exchange with the meta server."""
    testbed = build_testbed(seed=12)
    env = testbed.env
    stack = build_stack(testbed, Arrangement.ALL_LOCAL)
    testbed.meta_host.crash()

    def scenario():
        with pytest.raises(TransportTimeout):
            yield from stack.importer.import_binding("DesiredService", FIJI)
        return "done"

    assert run(env, scenario()) == "done"
    attempts = stack.importer.policy.attempts
    assert env.stats.counter("hrpc.import_retries").value == attempts - 1
    assert env.stats.counter("bind.meta@client.remote_lookups").value == attempts


def test_retry_fan_out_is_linear_not_nested():
    """A cold Import with the meta host down sends ``attempts`` tries of
    the transport's own ``1 + retries`` datagrams, and no more: no layer
    under the importer multiplies them."""
    testbed = build_testbed(seed=5)
    env = testbed.env
    stack = build_stack(testbed, Arrangement.ALL_LOCAL, policies=PolicySet.default())
    testbed.meta_host.crash()

    def scenario():
        with pytest.raises(TransportTimeout):
            yield from stack.importer.import_binding("DesiredService", FIJI)
        return "done"

    assert run(env, scenario()) == "done"
    attempts = stack.importer.policy.attempts
    assert env.stats.counter("net.udp.retransmits").value == attempts * (
        1 + testbed.udp.retries
    )


def test_find_nsm_retries_host_resolution_through_crash():
    """The NSM-host's address lookup failing mid-Import is retried by
    the importer: FindNSM itself does not try again."""
    testbed = build_testbed(seed=18)
    env = testbed.env
    stack = build_stack(testbed, Arrangement.ALL_LOCAL)
    # The public BIND answers the native HostAddress lookup (mapping 6);
    # killing it fails FindNSM after the meta mappings have succeeded.
    testbed.public_host.crash()

    def medic():
        while env.stats.counter("hrpc.import_retries").value < 1:
            yield env.timeout(100.0)
        testbed.public_host.restart()

    env.process(medic())
    assert import_fiji(env, stack).endpoint.port == 9999
    assert env.stats.counter("hrpc.import_retries").value >= 1
    # Every try ran FindNSM once.
    assert env.stats.counter("hns.find_nsm").value == (
        env.stats.counter("hrpc.import_retries").value + 1
    )


def test_wire_drop_imports_survive_with_policy():
    """Cold imports keep succeeding on a lossy wire under the default policy."""
    testbed = build_testbed(seed=13)
    env = testbed.env
    stack = build_stack(testbed, Arrangement.ALL_LOCAL)
    # A reply is as lossy as its request, so 29 % per datagram loses
    # half the exchanges: 1 - 0.71 ** 2.
    testbed.internet.segments[0].set_loss(0.29)
    for _ in range(5):
        stack.flush_all_caches()
        assert import_fiji(env, stack).endpoint.port == 9999


def test_drop_probability_sweep_over_a_raw_wire():
    """A cold Import needs a dozen datagram exchanges; without retries
    the chance that all survive collapses as the wire degrades, and the
    default policy's four Import tries win much of it back.  The whole
    path runs over a *raw* datagram transport (``retries=0``) so the
    importer's tries are the only fault tolerance in play.  On the
    product transport loss is the transport's to absorb, and there the
    resolution grid's ``drop_p10`` cells read 1.0 with or without them."""
    TRIALS = 100
    table = {}
    for label, policy in (
        ("default", DEFAULT_RESOLUTION_POLICY),
        ("none", ResolutionPolicy.disabled()),
    ):
        for drop in (0.0, 0.10, 0.20):
            testbed = build_testbed(seed=141)
            env = testbed.env
            # The factories below build on ``testbed.udp``.
            testbed.udp = DatagramTransport(testbed.internet, name="rawudp", retries=0)
            stack = build_stack(
                testbed, Arrangement.ALL_LOCAL, policies=PolicySet(resolution=policy)
            )
            testbed.internet.segments[0].set_loss(drop)
            latencies = []

            def one_import():
                start = env.now
                try:
                    yield from stack.importer.import_binding("DesiredService", FIJI)
                except TransportTimeout:
                    return
                latencies.append(env.now - start)

            for _ in range(TRIALS):
                stack.flush_all_caches()
                run(env, one_import())
            table[label, drop] = (
                len(latencies) / TRIALS,
                percentile(latencies, 50),
                percentile(latencies, 99),
            )
    # The prototype's single pass loses most cold Imports at 10 % drop,
    # and more as the wire degrades...
    assert table["none", 0.10][0] <= 0.75
    assert table["none", 0.20][0] < table["none", 0.10][0]
    # ...the default policy's tries win back most of them at each drop
    # rate (0.83 and 0.29 against 0.14 and 0.03), degrading in order...
    assert table["default", 0.10][0] > table["none", 0.10][0] + 0.5
    assert table["default", 0.20][0] > table["none", 0.20][0]
    assert table["default", 0.20][0] < table["default", 0.10][0]
    # ...a clean wire is unaffected either way, and the policy's retry
    # cost lives in the tail: p99 at 10 % drop absorbs at least one timeout.
    assert table["default", 0.0][0] == 1.0
    assert table["none", 0.0][0] == 1.0
    assert table["default", 0.10][2] > table["default", 0.0][1] + 400


# ----------------------------------------------------------------------
# Negative caching
# ----------------------------------------------------------------------
def test_negative_caching_spares_repeated_misses():
    testbed = build_testbed(seed=15)
    env = testbed.env
    metastore = testbed.make_metastore(testbed.client)

    def scenario():
        for _ in range(3):
            with pytest.raises(ContextNotFound):
                yield from metastore.context_to_name_service("no-such-ctx")
        return "done"

    assert run(env, scenario()) == "done"
    # One remote NXDOMAIN; the repeats answer from the negative cache.
    assert env.stats.counter("bind.meta@client.remote_lookups").value == 1
    assert env.stats.counter("bind.meta@client.negative_hits").value == 2


# ----------------------------------------------------------------------
# Serve-stale
# ----------------------------------------------------------------------
def test_serve_stale_masks_meta_outage():
    """A meta outage past the TTL is masked end to end at FindNSM —
    whether the mappings are fetched one by one or as a chained batch."""
    calibration = dataclasses.replace(DEFAULT_CALIBRATION, meta_ttl_ms=5_000)
    served = {}
    for fast_path, stale_hits in (
        (FastPathPolicy.disabled(), 5),
        (FastPathPolicy(), 4),
    ):
        testbed = build_testbed(seed=14, calibration=calibration)
        env = testbed.env
        hns = testbed.make_hns(
            testbed.client,
            policies=PolicySet(
                resolution=DEFAULT_RESOLUTION_POLICY, fast_path=fast_path
            ),
        )
        fresh = run(env, hns.find_nsm(FIJI, "HRPCBinding"))
        testbed.meta_host.crash()
        sleep(env, 6_000)  # past the TTL but within the stale window
        served[fast_path] = run(env, hns.find_nsm(FIJI, "HRPCBinding"))
        assert served[fast_path] == fresh
        # One stale hit per meta mapping the outage touched: five
        # lookups sequentially, a three-question batch plus the
        # NSM-host address on the fast path.
        assert (
            env.stats.counter("bind.meta@client.stale_hits").value == stale_hits
        )
        testbed.meta_host.restart()  # and the path reconverges
        assert run(env, hns.find_nsm(FIJI, "HRPCBinding")) == fresh
    assert served[FastPathPolicy.disabled()] == served[FastPathPolicy()]


@pytest.mark.parametrize(
    "replica", [ReplicaPolicy(), ReplicaPolicy.disabled()], ids=["hedged", "ordered"]
)
def test_serve_stale_only_when_every_replica_failed(replica):
    """A live secondary answers a read the crashed primary cannot, so
    nothing stale is served; once the secondary is down too, the stale
    answer follows the one failed exchange with the replica set."""
    calibration = dataclasses.replace(DEFAULT_CALIBRATION, meta_ttl_ms=5_000)
    testbed = build_testbed(seed=14, calibration=calibration)
    env = testbed.env
    meta_copy = Zone("hns")
    for record in testbed.meta_server.zones[0].all_records():
        meta_copy.add(record)
    secondary_host = testbed.internet.add_host("metans2", testbed.internet.segments[0])
    secondary = BindServer(
        secondary_host,
        zones=[meta_copy],
        lookup_cost_ms=calibration.meta_bind_lookup_ms,
        calibration=calibration,
        name="meta-bind-2",
    )
    hns = testbed.make_hns(
        testbed.client,
        secondaries=[secondary.listen()],
        policies=PolicySet(resolution=DEFAULT_RESOLUTION_POLICY, replica=replica),
    )
    stale_hits = env.stats.counter("bind.meta@client.stale_hits")
    fresh = run(env, hns.find_nsm(FIJI, "HRPCBinding"))

    testbed.meta_host.crash()
    sleep(env, 6_000)  # past the TTL but within the stale window
    assert run(env, hns.find_nsm(FIJI, "HRPCBinding")) == fresh
    assert stale_hits.value == 0  # the secondary answered

    secondary_host.crash()
    sleep(env, 6_000)
    assert run(env, hns.find_nsm(FIJI, "HRPCBinding")) == fresh
    # One stale hit per mapping of the sequential path, each after one
    # failed exchange with both replicas.
    assert stale_hits.value == 5


def test_no_stale_serving_without_policy():
    calibration = dataclasses.replace(DEFAULT_CALIBRATION, meta_ttl_ms=5_000)
    testbed = build_testbed(seed=14, calibration=calibration)
    env = testbed.env
    metastore = testbed.make_metastore(
        testbed.client, policies=PolicySet(resolution=ResolutionPolicy.disabled())
    )
    assert run(env, metastore.context_to_name_service(BIND_CONTEXT)) == BIND_NS
    testbed.meta_host.crash()
    sleep(env, 6_000)

    def scenario():
        with pytest.raises(TransportTimeout):
            yield from metastore.context_to_name_service(BIND_CONTEXT)
        return "done"

    assert run(env, scenario()) == "done"
    assert env.stats.counter("bind.meta@client.stale_hits").value == 0
    testbed.meta_host.restart()
    assert run(env, metastore.context_to_name_service(BIND_CONTEXT)) == BIND_NS


def test_stale_window_expiry_ends_the_grace_period():
    calibration = dataclasses.replace(DEFAULT_CALIBRATION, meta_ttl_ms=5_000)
    testbed = build_testbed(seed=14, calibration=calibration)
    env = testbed.env
    metastore = testbed.make_metastore(testbed.client)
    assert run(env, metastore.context_to_name_service(BIND_CONTEXT)) == BIND_NS
    testbed.meta_host.crash()
    sleep(env, 6_000 + metastore.policies.resolution.stale_window_ms)

    def scenario():
        with pytest.raises(TransportTimeout):
            yield from metastore.context_to_name_service(BIND_CONTEXT)
        return "done"

    assert run(env, scenario()) == "done"
    assert env.stats.counter("bind.meta@client.stale_hits").value == 0
