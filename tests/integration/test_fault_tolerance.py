"""The ResolutionPolicy degradation ladder, end to end.

Fresh cache hit -> retry with jittered backoff -> stale cache hit ->
fail fast (circuit breaker open): each rung is exercised against the
full testbed with real crashes, restarts, and wire loss.
"""

import dataclasses

import pytest

from repro.core import (
    Arrangement,
    ContextNotFound,
    HNS,
    HNSName,
    LocalNsmBinding,
    NsmUnavailable,
)
from repro.core.nsms import BindBindingNSM, BindHostAddressNSM
from repro.harness.calibration import DEFAULT_CALIBRATION
from repro.harness.grids import percentile
from repro.hrpc.errors import BindingProtocolError
from repro.net import DatagramTransport, TransportTimeout
from repro.resolution import (
    BREAKER_RESET_MS,
    DEFAULT_RESOLUTION_POLICY,
    FastPathPolicy,
    PolicySet,
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
# Retry with backoff
# ----------------------------------------------------------------------
def test_meta_lookup_retries_through_server_restart():
    """A meta lookup survives a server outage shorter than the retry span."""
    testbed = build_testbed(seed=11)
    env = testbed.env
    metastore = testbed.make_metastore(testbed.client)
    testbed.meta_host.crash()

    def medic():
        # Revive the meta server once the resolver has started retrying,
        # so the outage is mid-lookup by construction.
        while env.stats.counter("bind.meta@client.retries").value < 1:
            yield env.timeout(100.0)
        testbed.meta_host.restart()

    env.process(medic())
    assert run(env, metastore.context_to_name_service(BIND_CONTEXT)) == BIND_NS
    assert env.stats.counter("bind.meta@client.retries").value >= 1


def test_meta_retry_exhaustion_raises_last_transient_error():
    """A dead meta server still fails -- after exactly policy.attempts rounds."""
    testbed = build_testbed(seed=12)
    env = testbed.env
    metastore = testbed.make_metastore(testbed.client)
    testbed.meta_host.crash()

    def scenario():
        with pytest.raises(TransportTimeout):
            yield from metastore.context_to_name_service(BIND_CONTEXT)
        return "done"

    assert run(env, scenario()) == "done"
    assert (
        env.stats.counter("bind.meta@client.retries").value
        == metastore.policies.resolution.attempts - 1
    )


def test_find_nsm_retries_host_resolution_through_crash():
    """The NSM-host crashing mid-FindNSM is retried at the HNS layer."""
    testbed = build_testbed(seed=18)
    env = testbed.env
    hns = testbed.make_hns(testbed.client)
    # The public BIND answers the native HostAddress lookup (mapping 6);
    # killing it fails FindNSM after the meta mappings have succeeded.
    testbed.public_host.crash()

    def medic():
        while env.stats.counter("hns.find_nsm.retries").value < 1:
            yield env.timeout(100.0)
        testbed.public_host.restart()

    env.process(medic())
    binding = run(env, hns.find_nsm(FIJI, "HRPCBinding"))
    assert binding.program == "nsm.HRPCBinding-BIND-cs"
    assert env.stats.counter("hns.find_nsm.retries").value >= 1


def test_wire_drop_imports_survive_with_policy():
    """Cold imports keep succeeding on a lossy wire under the default policy."""
    testbed = build_testbed(seed=13)
    env = testbed.env
    stack = build_stack(testbed, Arrangement.ALL_LOCAL)
    testbed.internet.segments[0].drop_probability = 0.5
    for _ in range(5):
        stack.flush_all_caches()
        binding = run(env, stack.importer.import_binding("DesiredService", FIJI))
        assert binding.endpoint.port == 9999


def test_drop_probability_sweep_over_a_raw_wire():
    """Cold FindNSM needs six datagram exchanges; without retries the
    chance that all six survive collapses as the wire degrades, while
    the default policy confines the damage to the latency tail.  The
    whole path runs over a *raw* datagram transport (``retries=0``) so
    the policy layer is the only fault tolerance in play."""
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
            metastore = testbed.make_metastore(
                testbed.client, policies=PolicySet(resolution=policy)
            )
            hns = HNS(metastore, calibration=testbed.calibration)
            hostaddr = testbed.make_nsm(BindHostAddressNSM, testbed.client)
            hns.link_host_address_nsm(BIND_NS, hostaddr)
            testbed.internet.segments[0].drop_probability = drop
            latencies = []

            def one_find():
                start = env.now
                try:
                    yield from hns.find_nsm(FIJI, "HRPCBinding")
                except TransportTimeout:
                    return
                latencies.append(env.now - start)

            for _ in range(TRIALS):
                metastore.cache.clear()
                hostaddr.cache.clear()
                run(env, one_find())
            table[label, drop] = (
                len(latencies) / TRIALS,
                percentile(latencies, 50),
                percentile(latencies, 99),
            )
    # Acceptance: >=99% success at 10% drop with the default policy...
    assert table["default", 0.10][0] >= 0.99
    # ...while the prototype's single-pass behaviour loses roughly one
    # cold lookup in two (1 - 0.9^6).
    assert table["none", 0.10][0] <= 0.75
    assert table["none", 0.20][0] < table["none", 0.10][0]
    # A clean wire is unaffected either way, and the policy's retry cost
    # lives in the tail: p99 at 10% drop absorbs at least one timeout.
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


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
def test_breaker_trips_fast_fails_then_recovers():
    testbed = build_testbed(seed=16)
    env = testbed.env
    stack = build_stack(testbed, Arrangement.REMOTE_NSMS)
    run(env, stack.importer.import_binding("DesiredService", FIJI))  # warm
    testbed.nsm_host.crash()
    stack.flush_nsm_caches()

    def failing():
        with pytest.raises(NsmUnavailable):
            yield from stack.importer.import_binding("DesiredService", FIJI)
        return "done"

    # The retries exhaust into the breaker tripping.
    assert run(env, failing()) == "done"
    breaker = stack.hns.nsm_breakers.breaker(stack.binding_nsm.name)
    assert breaker.state == "open"

    # While open: fail fast, burning no transport timeouts even though
    # the NSM host is actually back up already.
    testbed.nsm_host.restart()
    start = env.now
    assert run(env, failing()) == "done"
    assert env.now - start < 100.0
    assert env.stats.counter("hns.breaker.fast_fails").value >= 1

    # After the reset window the breaker half-opens; the next import is
    # the probe, succeeds, and closes the circuit.
    sleep(env, BREAKER_RESET_MS + 1)
    binding = run(env, stack.importer.import_binding("DesiredService", FIJI))
    assert binding.endpoint.port == 9999
    assert breaker.state == "closed"


def test_half_open_probe_answered_with_an_error_closes_the_breaker():
    """A probe the NSM answers with an application error proves it is
    alive: the breaker closes, and later Imports reach the NSM."""
    testbed = build_testbed(seed=16)
    env = testbed.env
    stack = build_stack(testbed, Arrangement.REMOTE_NSMS)
    run(env, stack.importer.import_binding("DesiredService", FIJI))  # warm
    testbed.nsm_host.crash()
    stack.flush_nsm_caches()

    def expect(error, service):
        with pytest.raises(error):
            yield from stack.importer.import_binding(service, FIJI)
        return "done"

    assert run(env, expect(NsmUnavailable, "DesiredService")) == "done"
    breaker = stack.hns.nsm_breakers.breaker(stack.binding_nsm.name)
    assert breaker.state == "open"
    testbed.nsm_host.restart()
    sleep(env, BREAKER_RESET_MS + 1)

    # The half-open probe: the NSM answers "not registered".
    assert run(env, expect(BindingProtocolError, "NoSuchService")) == "done"
    binding = run(env, stack.importer.import_binding("DesiredService", FIJI))
    assert binding.endpoint.port == 9999
    assert breaker.state == "closed"


def test_open_breaker_routes_to_linked_in_copy():
    """FindNSM routes around a dead NSM when a local copy is linked in."""
    testbed = build_testbed(seed=17)
    env = testbed.env
    hns = testbed.make_hns(testbed.client)
    local = testbed.make_nsm(BindBindingNSM, testbed.client)
    hns.link_local_nsm(local)
    breaker = hns.nsm_breakers.breaker(local.name)
    for _ in range(hns.policies.resolution.breaker_threshold):
        breaker.record_failure()
    assert breaker.state == "open"
    binding = run(env, hns.find_nsm(FIJI, "HRPCBinding"))
    assert isinstance(binding, LocalNsmBinding)
    assert binding.nsm is local
    assert env.stats.counter("hns.breaker.rerouted").value == 1
