"""Remote computation over the HNS."""

import pytest

from repro.core import HNSName, NsmStub
from repro.core.import_call import HrpcImporter, LocalFinder
from repro.core.nsms import BindBindingNSM, ClearinghouseBindingNSM
from repro.hrpc import HrpcRuntime
from repro.rexec import REXEC_PROGRAM, RexecError, RexecServer
from repro.rexec.client import RemoteExecutor
from repro.workloads import build_testbed

FIJI = HNSName("BIND-cs", "fiji.cs.washington.edu")
JUNE = HNSName("BIND-cs", "june.cs.washington.edu")
DLION = HNSName("CH-hcs", "dlion:hcs:uw")


def run(env, gen):
    return env.run(until=env.process(gen))


@pytest.fixture
def rexec_world():
    testbed = build_testbed(seed=88)
    workers = {}
    # Sun-side workers register with their portmappers.
    for host in (testbed.fiji, testbed.june):
        worker = RexecServer(host)
        pm = host.service_at(111)
        if pm is None:
            from repro.hrpc import Portmapper

            pm = Portmapper(host)
            pm.listen()
        pm.register_local(REXEC_PROGRAM, worker.endpoint.port)
        workers[host.name] = worker
    # Xerox-side worker advertises with the Courier binder.
    worker = RexecServer(testbed.dlion)
    testbed.dlion.service_at(5002).advertise_local(
        REXEC_PROGRAM, worker.endpoint.port
    )
    workers["dlion"] = worker

    hns = testbed.make_hns(testbed.client)
    stub = NsmStub(testbed.client)
    for nsm in (
        testbed.make_nsm(BindBindingNSM, testbed.client),
        testbed.make_nsm(ClearinghouseBindingNSM, testbed.client),
    ):
        hns.link_local_nsm(nsm)
        stub.link_local(nsm)
    runtime = HrpcRuntime(testbed.client, testbed.internet)
    importer = HrpcImporter.direct(
        testbed.client,
        LocalFinder(hns),
        stub,
        calibration=testbed.calibration,
    )
    executor = RemoteExecutor(testbed.client, importer, runtime)
    return testbed, executor, workers


def test_wordcount_on_sun_host(rexec_world):
    testbed, executor, workers = rexec_world
    reply = run(
        testbed.env,
        executor.run_on(FIJI, "wordcount", b"a name service for evolving systems"),
    )
    assert reply["host"] == "fiji"
    assert reply["result"]["words"] == 6
    assert workers["fiji"].completed == 1


def test_job_on_xerox_host_same_client_code(rexec_world):
    testbed, executor, workers = rexec_world
    reply = run(testbed.env, executor.run_on(DLION, "checksum", b"hcs"))
    assert reply["host"] == "dlion"
    assert len(reply["result"]["sha256"]) == 64


def test_unknown_job_raises(rexec_world):
    testbed, executor, workers = rexec_world

    def scenario():
        with pytest.raises(RexecError):
            yield from executor.run_on(FIJI, "mine-bitcoin", b"")
        return "done"

    assert run(testbed.env, scenario()) == "done"


def test_binding_cached_across_jobs(rexec_world):
    testbed, executor, workers = rexec_world
    env = testbed.env
    run(env, executor.run_on(FIJI, "wordcount", b"x"))
    before = env.stats.counters()["hrpc.imports"]
    run(env, executor.run_on(FIJI, "wordcount", b"y"))
    assert env.stats.counters()["hrpc.imports"] == before


def test_failover_between_compute_hosts(rexec_world):
    testbed, executor, workers = rexec_world
    env = testbed.env
    # Warm bindings to both, then kill the first choice.
    run(env, executor.run_on(FIJI, "wordcount", b"warm"))
    run(env, executor.run_on(JUNE, "wordcount", b"warm"))
    testbed.fiji.crash()
    reply = run(
        env, executor.run_anywhere([FIJI, JUNE], "wordcount", b"one two")
    )
    assert reply["host"] == "june"
    assert env.stats.counters()["rexec.client.failovers"] == 1


def test_run_anywhere_all_down(rexec_world):
    testbed, executor, workers = rexec_world
    env = testbed.env
    run(env, executor.run_on(FIJI, "wordcount", b"warm"))
    run(env, executor.run_on(JUNE, "wordcount", b"warm"))
    testbed.fiji.crash()
    testbed.june.crash()
    from repro.net import NetworkError

    def scenario():
        with pytest.raises(NetworkError):
            yield from executor.run_anywhere([FIJI, JUNE], "wordcount", b"x")
        return "done"

    assert run(env, scenario()) == "done"
    with pytest.raises(ValueError):
        run(env, executor.run_anywhere([], "wordcount", b"x"))


def test_bigger_payload_costs_more(rexec_world):
    testbed, executor, workers = rexec_world
    env = testbed.env
    run(env, executor.run_on(FIJI, "checksum", b"warm"))
    start = env.now
    run(env, executor.run_on(FIJI, "checksum", b"x" * 100))
    small = env.now - start
    start = env.now
    run(env, executor.run_on(FIJI, "checksum", b"x" * 100_000))
    large = env.now - start
    assert large > 2 * small
