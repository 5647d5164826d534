"""Soak tests: the federation under churn, loss, and sustained load."""


from repro.bind import ResourceRecord, RRType
from repro.core import Arrangement, HNSName
from repro.workloads import build_stack, build_testbed

FIJI = HNSName("BIND-cs", "fiji.cs.washington.edu")


def run(env, gen):
    return env.run(until=env.process(gen))


def test_sustained_workload_with_native_churn():
    """Hours of simulated operation: hosts move every few minutes via
    the native interface; clients keep importing.  Invariant: every
    answer the client acts on is either current truth or within one TTL
    of it, and the system never wedges."""
    testbed = build_testbed(seed=130)
    env = testbed.env
    stack = build_stack(testbed, Arrangement.ALL_LOCAL)
    zone = testbed.public_server.zones[0]
    ttl = 30_000.0  # 30 simulated seconds

    # Pre-create the hosts fiji will "move" to, each with the service
    # infrastructure a real relocation would bring along.
    from repro.hrpc import HrpcServer, Portmapper

    def make_home(i):
        host = testbed.internet.add_host(f"fiji-home{i}", system_type="sun")
        pm = Portmapper(host, calibration=testbed.calibration)
        pm.listen()
        pm.register_local("DesiredService", 9999)
        server = HrpcServer(host)

        def ping(ctx, *args):
            yield ctx.host.cpu.compute(0.1)
            return ("pong",) + args

        server.program("DesiredService").procedure("ping", ping)
        server.listen(9999)
        return host

    homes = [make_home(i) for i in range(8)]

    # fiji's address history: (valid_from, address)
    history = [(0.0, str(testbed.fiji.address))]

    def churn():
        for epoch in range(8):
            yield env.timeout(120_000)  # every 2 simulated minutes
            new_address = str(homes[epoch].address)
            zone.replace(
                "fiji.cs.washington.edu",
                RRType.A,
                [
                    ResourceRecord.a_record(
                        "fiji.cs.washington.edu", new_address, ttl=ttl
                    )
                ],
            )
            history.append((env.now, new_address))

    observations = []

    def client_loop():
        for _ in range(60):
            binding = yield from stack.importer.import_binding(
                "DesiredService", FIJI
            )
            observations.append((env.now, str(binding.endpoint.address)))
            # NSM caches the binding; flush so churn is observable, but
            # keep the HNS meta cache (meta data does not churn here).
            stack.flush_nsm_caches()
            yield env.timeout(15_000)

    env.process(churn())
    run(env, client_loop())
    assert len(observations) == 60

    def truth_at(t):
        current = history[0][1]
        for valid_from, address in history:
            if valid_from <= t:
                current = address
        return current

    for when, observed in observations:
        acceptable = {truth_at(when), truth_at(max(0.0, when - ttl))}
        assert observed in acceptable, (when, observed, acceptable)
    # Churn actually happened and was observed.
    assert len({addr for _, addr in observations}) >= 4


def test_workload_survives_packet_loss():
    """10% datagram loss: retransmission keeps the system correct, just
    slower; statistics show the retries happened."""

    testbed = build_testbed(seed=131)
    env = testbed.env
    # Inject loss into the single segment.
    testbed.internet.segments[0].set_loss(0.10)
    stack = build_stack(testbed, Arrangement.ALL_LOCAL)

    def client_loop():
        results = []
        for _ in range(25):
            binding = yield from stack.importer.import_binding(
                "DesiredService", FIJI
            )
            results.append(binding.endpoint.port)
        return results

    results = run(env, client_loop())
    assert results == [9999] * 25
    assert env.stats.counters().get("net.udp.retransmits", 0) > 0


def test_many_clients_share_remote_hns_without_deadlock():
    """24 clients pounding one remote HNS + remote NSM: all complete,
    and the shared caches mean the aggregate remote traffic is far less
    than 24 cold paths."""
    from repro.core.import_call import HrpcImporter, RemoteFinder
    from repro.core.nsm import NsmStub
    from repro.hrpc import HRPCBinding, HrpcRuntime
    from repro.net.addresses import Endpoint
    from repro.workloads.scenarios import HNS_PORT

    testbed = build_testbed(seed=132)
    env = testbed.env
    stack = build_stack(testbed, Arrangement.ALL_REMOTE)  # brings up servers
    hns_binding = HRPCBinding(
        Endpoint(testbed.hns_host.address, HNS_PORT), "hns", suite="sunrpc"
    )
    done = []

    def one_client(i):
        # Stagger arrivals so the cold path is not retransmitted into
        # duplicate executions while the first client warms the cache.
        yield env.timeout(i * 1_000)
        host = testbed.internet.add_host(f"soak{i}")
        runtime = HrpcRuntime(host, testbed.internet)
        importer = HrpcImporter.direct(
            host,
            RemoteFinder(runtime, hns_binding),
            NsmStub(host, runtime),
            calibration=testbed.calibration,
        )
        binding = yield from importer.import_binding("DesiredService", FIJI)
        done.append((i, env.now, str(binding.endpoint)))

    for i in range(24):
        env.process(one_client(i))
    env.run()
    assert len(done) == 24
    assert len({endpoint for _, _, endpoint in done}) == 1
    # The shared HNS cache turned most meta traffic into hits.
    meta_lookups = env.stats.counters().get(
        f"bind.meta@{testbed.hns_host.name}.remote_lookups", 0
    )
    assert meta_lookups <= 10  # one cold path (~6) plus noise, not 24x6


def test_long_idle_period_then_activity():
    """TTL expiry over a long idle gap: the first query after the gap
    re-fetches, later ones hit again."""
    testbed = build_testbed(seed=133)
    env = testbed.env
    stack = build_stack(testbed, Arrangement.ALL_LOCAL)
    run(env, stack.importer.import_binding("DesiredService", FIJI))
    # Sleep past the meta TTL (1 hour).
    env.run(until=env.now + 2 * 3_600_000)
    start = env.now
    run(env, stack.importer.import_binding("DesiredService", FIJI))
    cold_again = env.now - start
    start = env.now
    run(env, stack.importer.import_binding("DesiredService", FIJI))
    warm = env.now - start
    # Everything expired over the gap: the full 460-vs-104 gap reopens.
    assert cold_again > 4 * warm
