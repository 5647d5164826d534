"""HRPC: suites, bindings, server dispatch, runtime calls, binders."""

import pytest

from repro.hrpc import (
    BindingProtocolError,
    CourierBinder,
    CourierBinderClient,
    HRPCBinding,
    HrpcError,
    HrpcRuntime,
    HrpcServer,
    NoSuchProcedure,
    NoSuchProgram,
    PROTOCOL_SUITES,
    Portmapper,
    PortmapperClient,
    RpcReply,
    suite_named,
)
from repro.harness.calibration import DEFAULT_CALIBRATION
from repro.net import DatagramTransport, Internetwork, NoRouteToHost, StreamTransport
from repro.net.addresses import Endpoint, NetworkAddress
from repro.net.transport import RemoteCallError
from repro.resolution import BACKOFF_BASE_MS, BACKOFF_JITTER, ResolutionPolicy
from repro.sim import ConstantLatency, Environment

CAL = DEFAULT_CALIBRATION


@pytest.fixture
def world():
    env = Environment(seed=9)
    net = Internetwork(env)
    segment = net.add_segment(
        latency=ConstantLatency(CAL.wire_base_ms, CAL.wire_per_byte_ms)
    )
    client = net.add_host("client", segment)
    server_host = net.add_host("server", segment, system_type="sun")
    return env, net, client, server_host


def run(env, gen):
    return env.run(until=env.process(gen))


# ----------------------------------------------------------------------
# Suites and bindings
# ----------------------------------------------------------------------
def test_known_suites():
    assert {"sunrpc", "courier", "raw", "raw-tcp"} <= set(PROTOCOL_SUITES)
    sun = suite_named("sunrpc")
    assert sun.transport == "udp" and sun.data_representation == "xdr"
    assert sun.binding_protocol == "portmapper"
    courier = suite_named("courier")
    assert courier.transport == "tcp"
    assert courier.data_representation == "courier"


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        suite_named("carrier-pigeon")


def test_raw_suite_matches_paper_remote_call_estimate():
    """Raw call CPU + ~2 ms wire ~= the paper's 33 ms C(remote call)."""
    raw = suite_named("raw")
    assert raw.call_cpu_overhead_ms + 2.0 == pytest.approx(33, abs=1.5)


def test_binding_validation(world):
    env, net, client, server_host = world
    ep = server_host.ephemeral_endpoint()
    binding = HRPCBinding(ep, "fileservice", suite="courier", system_type="xde")
    assert "fileservice" in binding.describe()
    assert binding.wire_size() > 48
    with pytest.raises(ValueError):
        HRPCBinding(ep, "")
    with pytest.raises(KeyError):
        HRPCBinding(ep, "x", suite="bogus")


# ----------------------------------------------------------------------
# Server + runtime
# ----------------------------------------------------------------------
def build_echo_server(env, server_host, port=9000):
    server = HrpcServer(server_host)

    def echo(ctx, *args):
        yield ctx.host.cpu.compute(1.0)
        return ("echo",) + args

    def crash(ctx):
        raise LookupError("intentional server failure")
        yield  # pragma: no cover

    def sized(ctx):
        yield ctx.host.cpu.compute(0.5)
        return RpcReply({"big": True}, result_size_bytes=4096)

    program = server.program("testprog")
    program.procedure("echo", echo)
    program.procedure("crash", crash)
    program.procedure("sized", sized)
    endpoint = server.listen(port)
    return server, endpoint


def test_call_roundtrip(world):
    env, net, client, server_host = world
    _, endpoint = build_echo_server(env, server_host)
    runtime = HrpcRuntime(client, net)
    binding = HRPCBinding(endpoint, "testprog", suite="sunrpc")

    result = run(env, runtime.call(binding, "echo", 1, "two"))
    assert result == ("echo", 1, "two")


def test_sunrpc_call_overhead_matches_table_deltas(world):
    """One inter-process Sun RPC call costs ~43 ms beyond the handler."""
    env, net, client, server_host = world
    _, endpoint = build_echo_server(env, server_host)
    runtime = HrpcRuntime(client, net)
    binding = HRPCBinding(endpoint, "testprog", suite="sunrpc")
    start = env.now
    run(env, runtime.call(binding, "echo"))
    elapsed = env.now - start
    assert elapsed - 1.0 == pytest.approx(CAL.hrpc_interproc_call_ms, rel=0.05)


def test_raw_tcp_suite_call(world):
    """The Raw suite also runs over the stream transport (raw-tcp)."""
    env, net, client, server_host = world
    _, endpoint = build_echo_server(env, server_host)
    runtime = HrpcRuntime(client, net)
    binding = HRPCBinding(endpoint, "testprog", suite="raw-tcp")
    result = run(env, runtime.call(binding, "echo", "stream"))
    assert result == ("echo", "stream")


def test_courier_call_slower_than_sunrpc(world):
    env, net, client, server_host = world
    _, endpoint = build_echo_server(env, server_host)
    runtime = HrpcRuntime(client, net)
    times = {}
    for suite in ("sunrpc", "courier"):
        binding = HRPCBinding(endpoint, "testprog", suite=suite)
        start = env.now
        run(env, runtime.call(binding, "echo"))
        times[suite] = env.now - start
    assert times["courier"] > times["sunrpc"]


def test_remote_exception_reraised_locally(world):
    env, net, client, server_host = world
    _, endpoint = build_echo_server(env, server_host)
    runtime = HrpcRuntime(client, net)
    binding = HRPCBinding(endpoint, "testprog", suite="sunrpc")

    def scenario():
        with pytest.raises(LookupError, match="intentional"):
            yield from runtime.call(binding, "crash")
        return "done"

    assert run(env, scenario()) == "done"


def test_no_such_program_and_procedure(world):
    env, net, client, server_host = world
    _, endpoint = build_echo_server(env, server_host)
    runtime = HrpcRuntime(client, net)

    def scenario():
        with pytest.raises(NoSuchProgram):
            yield from runtime.call(
                HRPCBinding(endpoint, "ghostprog"), "echo"
            )
        with pytest.raises(NoSuchProcedure):
            yield from runtime.call(
                HRPCBinding(endpoint, "testprog"), "ghostproc"
            )
        return "done"

    assert run(env, scenario()) == "done"


def test_larger_reply_takes_longer(world):
    env, net, client, server_host = world
    _, endpoint = build_echo_server(env, server_host)
    runtime = HrpcRuntime(client, net)
    binding = HRPCBinding(endpoint, "testprog", suite="sunrpc")
    t0 = env.now
    run(env, runtime.call(binding, "echo"))
    small = env.now - t0
    t1 = env.now
    run(env, runtime.call(binding, "sized"))
    big = env.now - t1
    assert big > small


def test_program_registration_rules(world):
    env, net, client, server_host = world
    server = HrpcServer(server_host)
    program = server.program("p")

    def handler(ctx):
        return "x"
        yield  # pragma: no cover

    program.procedure("f", handler)
    with pytest.raises(ValueError):
        program.procedure("f", handler)
    assert program.procedures == ["f"]
    assert server.has_program("p")
    with pytest.raises(ValueError):
        server.register_program(program)
    with pytest.raises(HrpcError):
        HrpcRuntime(client, net).transport_named("smoke-signals")


# ----------------------------------------------------------------------
# Retries under a ResolutionPolicy
# ----------------------------------------------------------------------
def test_transient_failure_is_retried_after_backoff(world):
    env, net, client, server_host = world
    _, endpoint = build_echo_server(env, server_host)
    runtime = HrpcRuntime(client, net)
    binding = HRPCBinding(endpoint, "testprog", suite="sunrpc")
    server_host.crash()

    def come_back():  # after the first attempt's four 1 s datagram tries
        yield env.timeout(4_500.0)
        server_host.restart()

    env.process(come_back())
    env.obs.enable()
    result = run(env, runtime.call(binding, "echo", 7, policy=ResolutionPolicy()))
    assert result == ("echo", 7)
    assert env.stats.counters()["hrpc.retries"] == 1
    first, second = env.obs.spans_named("hrpc.attempt")
    assert first.attrs["outcome"] == "retried"
    assert first.attrs["error_type"] == "TransportTimeout"
    assert "outcome" not in second.attrs
    # The second attempt waited out the first rung of the backoff ladder.
    assert second.start_ms - first.end_ms >= BACKOFF_BASE_MS * (1 - BACKOFF_JITTER)


def test_remote_error_is_raised_once_and_never_retried(world):
    env, net, client, server_host = world
    server = HrpcServer(server_host)
    served = []

    def fail(ctx):
        served.append(env.now)
        raise LookupError("remote failure")
        yield  # pragma: no cover

    server.program("flaky").procedure("fail", fail)
    binding = HRPCBinding(server.listen(9100), "flaky", suite="sunrpc")
    runtime = HrpcRuntime(client, net)

    def scenario():
        with pytest.raises(LookupError, match="remote failure") as caught:
            yield from runtime.call(binding, "fail", policy=ResolutionPolicy())
        return caught.value

    error = run(env, scenario())
    assert len(served) == 1
    assert isinstance(error.__cause__, RemoteCallError)
    assert "hrpc.retries" not in env.stats.counters()


def test_permanent_network_error_is_not_retried(world):
    env, net, client, server_host = world
    runtime = HrpcRuntime(client, net)
    nowhere = Endpoint(NetworkAddress("10.9.9.9"), 9000)  # on no segment
    binding = HRPCBinding(nowhere, "testprog", suite="sunrpc")

    def scenario():
        with pytest.raises(NoRouteToHost):
            yield from runtime.call(binding, "echo", policy=ResolutionPolicy())
        return "done"

    assert run(env, scenario()) == "done"
    assert "hrpc.retries" not in env.stats.counters()


# ----------------------------------------------------------------------
# Native binding protocols
# ----------------------------------------------------------------------
def test_portmapper_getport(world):
    env, net, client, server_host = world
    pm = Portmapper(server_host)
    pm.listen()
    pm.register_local("nfs", 2049)
    udp = DatagramTransport(net)
    pmc = PortmapperClient(client, udp)
    port = run(env, pmc.get_port(server_host.address, "nfs"))
    assert port == 2049


def test_portmapper_unknown_program(world):
    env, net, client, server_host = world
    Portmapper(server_host).listen()
    pmc = PortmapperClient(client, DatagramTransport(net))

    def scenario():
        with pytest.raises(BindingProtocolError):
            yield from pmc.get_port(server_host.address, "ghost")
        return "done"

    assert run(env, scenario()) == "done"


def test_portmapper_does_two_exchanges(world):
    env, net, client, server_host = world
    pm = Portmapper(server_host)
    pm.listen()
    pm.register_local("nfs", 2049)
    pmc = PortmapperClient(client, DatagramTransport(net))
    start = env.now
    run(env, pmc.get_port(server_host.address, "nfs"))
    single_exchange = CAL.portmapper_server_ms + 2.1
    assert env.now - start >= CAL.portmapper_exchanges * single_exchange * 0.9


def test_courier_binder_locate(world):
    env, net, client, server_host = world
    binder = CourierBinder(server_host)
    binder.listen()
    binder.advertise_local("fileservice", 6000)
    cbc = CourierBinderClient(client, StreamTransport(net))
    port = run(env, cbc.locate(server_host.address, "fileservice"))
    assert port == 6000


def test_courier_binder_unknown_service(world):
    env, net, client, server_host = world
    CourierBinder(server_host).listen()
    cbc = CourierBinderClient(client, StreamTransport(net))

    def scenario():
        with pytest.raises(BindingProtocolError):
            yield from cbc.locate(server_host.address, "ghost")
        return "done"

    assert run(env, scenario()) == "done"


def test_courier_binder_advertise_remote(world):
    env, net, client, server_host = world
    CourierBinder(server_host).listen()
    cbc = CourierBinderClient(client, StreamTransport(net))
    run(env, cbc.advertise(server_host.address, "mail", 6100))
    assert run(env, cbc.locate(server_host.address, "mail")) == 6100


def test_binding_protocol_validation(world):
    env, net, client, server_host = world
    pm = Portmapper(server_host)
    with pytest.raises(ValueError):
        pm.register_local("x", 0)
    binder = CourierBinder(server_host)
    with pytest.raises(ValueError):
        binder.advertise_local("x", 99999)
