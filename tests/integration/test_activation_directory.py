"""Server activation and the federation directory."""

import pytest

from repro.core import HNSName
from repro.hrpc import HrpcServer, Portmapper, PortmapperClient
from repro.workloads import build_testbed
from repro.workloads.scenarios import BIND_NS, CH_NS


def run(env, gen):
    return env.run(until=env.process(gen))


# ----------------------------------------------------------------------
# Server activation (inetd-style) through the portmapper
# ----------------------------------------------------------------------
def make_sleepy_factory(created):
    def factory(host, port):
        server = HrpcServer(host, name=f"sleepy@{host.name}")

        def ping(ctx, *args):
            yield ctx.host.cpu.compute(0.1)
            return ("awake",) + args

        server.program("SleepyService").procedure("ping", ping)
        server.listen(port)
        created.append(server)
        return server

    return factory


@pytest.fixture
def activation_world():
    testbed = build_testbed(seed=120)
    pm = testbed.fiji.service_at(111)
    created = []
    pm.register_activatable("SleepyService", 9900, make_sleepy_factory(created))
    return testbed, pm, created


def test_first_getport_activates(activation_world):
    testbed, pm, created = activation_world
    env = testbed.env
    assert not pm.is_running("SleepyService")
    pmc = PortmapperClient(testbed.client, testbed.udp, calibration=testbed.calibration)
    start = env.now
    port = run(env, pmc.get_port(testbed.fiji.address, "SleepyService"))
    first = env.now - start
    assert port == 9900
    assert pm.is_running("SleepyService")
    assert len(created) == 1
    # Second binding: no activation cost.
    start = env.now
    run(env, pmc.get_port(testbed.fiji.address, "SleepyService"))
    second = env.now - start
    assert first - second == pytest.approx(pm.activation_ms, rel=0.05)
    assert pm.activations == 1


def test_a_getport_during_activation_waits_for_it(activation_world):
    """Two hosts bind at once: the second GETPORT lands while the first
    is still paying the activation, and is answered the port it comes up
    on, as inetd would — not "not registered"."""
    testbed, pm, created = activation_world
    env = testbed.env
    answered = {}

    def bind(host):
        pmc = PortmapperClient(host, testbed.udp, calibration=testbed.calibration)
        port = yield from pmc.get_port(testbed.fiji.address, "SleepyService")
        answered[host.name] = port

    both = [env.process(bind(host)) for host in (testbed.client, testbed.june)]
    env.run(until=env.all_of(both))
    assert answered == {"client": 9900, "june": 9900}
    assert pm.activations == 1 and len(created) == 1


def test_activated_service_is_callable(activation_world):
    testbed, pm, created = activation_world
    env = testbed.env
    from repro.hrpc import HRPCBinding, HrpcRuntime
    from repro.net.addresses import Endpoint

    pmc = PortmapperClient(testbed.client, testbed.udp, calibration=testbed.calibration)
    port = run(env, pmc.get_port(testbed.fiji.address, "SleepyService"))
    runtime = HrpcRuntime(testbed.client, testbed.internet)
    binding = HRPCBinding(
        Endpoint(testbed.fiji.address, port), "SleepyService", suite="sunrpc"
    )
    assert run(env, runtime.call(binding, "ping", 1)) == ("awake", 1)


def test_activation_through_full_import(activation_world):
    """The binding NSM drives activation transparently."""
    from repro.core import Arrangement
    from repro.workloads import build_stack

    testbed, pm, created = activation_world
    stack = build_stack(testbed, Arrangement.ALL_LOCAL)
    binding = run(
        testbed.env,
        stack.importer.import_binding(
            "SleepyService", HNSName("BIND-cs", "fiji.cs.washington.edu")
        ),
    )
    assert binding.endpoint.port == 9900
    assert pm.activations == 1


def test_activation_registration_validation(activation_world):
    testbed, pm, created = activation_world
    with pytest.raises(ValueError):
        pm.register_activatable("X", 0, make_sleepy_factory([]))
    with pytest.raises(ValueError):
        pm.register_activatable(
            "DesiredService", 9999, make_sleepy_factory([])
        )  # already running
    with pytest.raises(ValueError):
        Portmapper(testbed.june, activation_ms=-1)


# ----------------------------------------------------------------------
# Directory
# ----------------------------------------------------------------------
def test_directory_lists_whole_federation():
    testbed = build_testbed(seed=121)
    metastore = testbed.make_metastore(testbed.client)
    listing = run(testbed.env, metastore.directory())
    assert listing.serial == testbed.meta_server.zones[0].serial
    assert listing.contexts["bind-cs"] == BIND_NS
    assert listing.contexts["ch-hcs"] == CH_NS
    assert set(listing.name_services) == {"bind-cs", "ch-hcs"}
    assert listing.name_services["ch-hcs"].kind == "clearinghouse"
    # 4 query classes x 2 name services
    assert len(listing.query_mappings) == 8
    assert len(listing.nsms) == 8
    assert listing.query_mappings[("bind-cs", "hrpcbinding")] == (
        f"HRPCBinding-{BIND_NS}"
    )
    assert "nsmhost.cs.washington.edu" in listing.nsm_hosts
    rendered = listing.render()
    assert "contexts:" in rendered and "NSMs:" in rendered


def test_directory_reflects_new_registrations():
    from repro.core import HnsAdministrator

    testbed = build_testbed(seed=122)
    env = testbed.env
    admin = HnsAdministrator(testbed.make_metastore(testbed.meta_host))
    run(env, admin.register_context("NEWCTX", BIND_NS))
    metastore = testbed.make_metastore(testbed.client)
    listing = run(env, metastore.directory())
    assert listing.contexts["newctx"] == BIND_NS
