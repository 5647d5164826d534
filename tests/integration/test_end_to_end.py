"""End-to-end integration: the full HNS stack on the simulated testbed."""

import pytest

from repro.core import Arrangement, HNSName
from repro.hrpc import HrpcRuntime
from repro.workloads import QueryWorkload, build_stack, build_testbed

FIJI = HNSName("BIND-cs", "fiji.cs.washington.edu")
DLION = HNSName("CH-hcs", "dlion:hcs:uw")


def run(env, gen):
    return env.run(until=env.process(gen))


def test_full_import_and_call_across_both_system_types():
    """One client binds to a Sun service and a Xerox service through the
    same code path, then calls both through HRPC emulation."""
    testbed = build_testbed(seed=21)
    env = testbed.env
    runtime = HrpcRuntime(testbed.client, testbed.internet)

    sun_stack = build_stack(testbed, Arrangement.ALL_LOCAL)
    sun_binding = run(env, sun_stack.importer.import_binding("DesiredService", FIJI))
    assert run(env, runtime.call(sun_binding, "ping", 1)) == ("pong", 1)

    ch_stack = build_stack(testbed, Arrangement.REMOTE_NSMS, name_service="CH-hcs")
    ch_binding = run(env, ch_stack.importer.import_binding("PrintService", DLION))
    assert ch_binding.suite == "courier"
    assert run(env, runtime.call(ch_binding, "ping", 2)) == ("pong", 2)


def test_service_relocation_visible_after_ttl():
    """A service moves hosts; the HNS picks up the change through the
    native name service once TTLs expire — no reregistration involved."""
    from repro.bind import ResourceRecord, RRType

    testbed = build_testbed(seed=22)
    env = testbed.env
    stack = build_stack(testbed, Arrangement.ALL_LOCAL)
    zone = testbed.public_server.zones[0]
    zone.replace(
        "fiji.cs.washington.edu",
        RRType.A,
        [
            ResourceRecord.a_record(
                "fiji.cs.washington.edu", str(testbed.fiji.address), ttl=1000
            )
        ],
    )
    binding1 = run(env, stack.importer.import_binding("DesiredService", FIJI))
    assert binding1.endpoint.address == testbed.fiji.address

    # The host "moves": new address record via the NATIVE interface, and
    # the service infrastructure moves with it.
    new_home = testbed.internet.add_host("fiji2", system_type="sun")
    from repro.hrpc import HrpcServer, Portmapper

    pm = Portmapper(new_home, calibration=testbed.calibration)
    pm.listen()
    pm.register_local("DesiredService", 9999)
    server = HrpcServer(new_home)

    def ping(ctx, *args):
        yield ctx.host.cpu.compute(0.1)
        return ("pong-from-new-home",) + args

    server.program("DesiredService").procedure("ping", ping)
    server.listen(9999)
    zone.replace(
        "fiji.cs.washington.edu",
        RRType.A,
        [
            ResourceRecord.a_record(
                "fiji.cs.washington.edu", str(new_home.address), ttl=1000
            )
        ],
    )
    # Within TTL the old cached binding persists...
    binding2 = run(env, stack.importer.import_binding("DesiredService", FIJI))
    assert binding2.endpoint.address == testbed.fiji.address
    # ...after TTL expiry the new location is found.
    env.run(until=env.now + 1500)
    binding3 = run(env, stack.importer.import_binding("DesiredService", FIJI))
    assert binding3.endpoint.address == new_home.address
    runtime = HrpcRuntime(testbed.client, testbed.internet)
    assert run(env, runtime.call(binding3, "ping"))[0] == "pong-from-new-home"


def test_meta_server_crash_breaks_cold_lookups_only():
    """With the meta-BIND down, cached FindNSMs still work; cold ones
    time out — exactly the availability tradeoff of a cached design."""
    from repro.net import TransportTimeout

    testbed = build_testbed(seed=23)
    env = testbed.env
    stack = build_stack(testbed, Arrangement.ALL_LOCAL)
    # Warm the caches.
    run(env, stack.importer.import_binding("DesiredService", FIJI))
    testbed.meta_host.crash()
    # Warm path still fine:
    binding = run(env, stack.importer.import_binding("DesiredService", FIJI))
    assert binding.endpoint.port == 9999
    # Cold path fails:
    stack.flush_hns_caches()

    def cold():
        with pytest.raises(TransportTimeout):
            yield from stack.importer.import_binding("DesiredService", FIJI)
        return "failed-as-expected"

    assert run(env, cold()) == "failed-as-expected"
    # Recovery:
    testbed.meta_host.restart()
    binding = run(env, stack.importer.import_binding("DesiredService", FIJI))
    assert binding.endpoint.port == 9999


def test_nsm_host_crash_with_remote_nsms():
    from repro.core import NsmUnavailable

    testbed = build_testbed(seed=24)
    env = testbed.env
    stack = build_stack(testbed, Arrangement.REMOTE_NSMS)
    run(env, stack.importer.import_binding("DesiredService", FIJI))
    testbed.nsm_host.crash()
    stack.flush_nsm_caches()

    def cold():
        # The importer retries the timeouts until the NSM's circuit
        # breaker trips, then FindNSM fails fast: the dead NSM has no
        # linked-in copy to route to in this arrangement.
        with pytest.raises(NsmUnavailable):
            yield from stack.importer.import_binding("DesiredService", FIJI)
        return "failed"

    assert run(env, cold()) == "failed"
    assert stack.hns.nsm_breakers.states()[stack.binding_nsm.name] == "open"


def test_workload_over_hns_achieves_high_hit_ratio():
    """A Zipf workload over a small population mostly hits the caches."""
    testbed = build_testbed(seed=25)
    env = testbed.env
    stack = build_stack(testbed, Arrangement.ALL_LOCAL)
    population = [
        (FIJI, "HRPCBinding", {"service": "DesiredService"}),
        (HNSName("BIND-cs", "june.cs.washington.edu"), "HostAddress", {}),
        (HNSName("BIND-cs", "ns0.cs.washington.edu"), "HostAddress", {}),
    ]
    workload = QueryWorkload(env, population, mean_interarrival_ms=50, zipf_s=1.2)
    events = workload.generate(30)
    hostaddr_nsm = stack.hns._host_address_nsms["BIND-cs"]

    def drive():
        done = 0
        for event in events:
            if event.at_ms > env.now:
                yield env.timeout(event.at_ms - env.now)
            if event.query_class == "HRPCBinding":
                yield from stack.importer.import_binding(
                    event.params["service"], event.hns_name
                )
            else:
                yield from hostaddr_nsm.query(event.hns_name)
            done += 1
        return done

    assert run(env, drive()) == 30
    meta_cache = stack.hns.metastore.cache
    assert meta_cache.hit_ratio > 0.7


def test_concurrent_clients_share_remote_hns_cache():
    """Two clients against one remote HNS: the second client's cold
    query hits the shared cache — the 'q' of equation (1) made real."""
    testbed = build_testbed(seed=26)
    env = testbed.env
    stack = build_stack(testbed, Arrangement.ALL_REMOTE)
    run(env, stack.importer.import_binding("DesiredService", FIJI))

    # A second, fresh client shares the HNS server (and its cache).
    client2 = testbed.internet.add_host("client2")
    from repro.core.import_call import HrpcImporter, RemoteFinder
    from repro.core.nsm import NsmStub
    from repro.hrpc import HRPCBinding
    from repro.net.addresses import Endpoint
    from repro.workloads.scenarios import HNS_PORT

    runtime2 = HrpcRuntime(client2, testbed.internet)
    importer2 = HrpcImporter.direct(
        client2,
        RemoteFinder(
            runtime2,
            HRPCBinding(
                Endpoint(testbed.hns_host.address, HNS_PORT), "hns", suite="sunrpc"
            ),
        ),
        NsmStub(client2, runtime2),
        calibration=testbed.calibration,
    )
    start = env.now
    binding = run(env, importer2.import_binding("DesiredService", FIJI))
    elapsed = env.now - start
    assert binding.endpoint.port == 9999
    # Cold client, warm shared caches: roughly the both-hit cell (~190),
    # nowhere near the all-miss cell (~546).
    assert elapsed < 250


def test_trace_shows_figure_2_1_flow():
    """The query-processing flow of Figure 2.1 is observable in the trace:
    one importer resolves a Clearinghouse context, then a BIND context,
    and never needs to know which name service it is calling."""
    from repro.core.nsms import BindBindingNSM

    testbed = build_testbed(seed=27)
    env = testbed.env
    env.trace.enabled = True
    stack = build_stack(testbed, Arrangement.ALL_LOCAL, name_service="CH-hcs")
    bind_nsm = testbed.make_nsm(BindBindingNSM, testbed.client)
    stack.hns.link_local_nsm(bind_nsm)
    stack.importer.nsm_stub.link_local(bind_nsm)
    start = env.now
    ch_binding = run(env, stack.importer.import_binding("PrintService", DLION))
    ch_ms, start = env.now - start, env.now
    bind_binding = run(env, stack.importer.import_binding("DesiredService", FIJI))
    bind_ms = env.now - start
    categories = [r.category for r in env.trace.records]
    assert "hns" in categories      # FindNSM decision
    assert "nsm" in categories      # NSM native resolution
    assert "import" in categories   # the import wrapper
    hns_messages = [r.message for r in env.trace.filter("hns")]
    assert any("FindNSM" in m for m in hns_messages)
    assert any("HRPCBinding-CH-hcs" in m for m in hns_messages)
    assert any("HRPCBinding-BIND-cs" in m for m in hns_messages)
    # One binding type, suite-correct for each system.
    assert type(ch_binding) is type(bind_binding)
    assert (ch_binding.suite, bind_binding.suite) == ("courier", "sunrpc")
    # Authentication and disk (156 vs 27 ms native) show end to end.
    assert ch_ms > bind_ms
