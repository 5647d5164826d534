"""The HNS exposed as a remote HRPC service."""

import pytest

from repro.core import HNSName, HnsError, serve_hns
from repro.core.nsms import BindBindingNSM
from repro.hrpc import HRPCBinding, HrpcRuntime, HrpcServer
from repro.workloads.scenarios import HNS_PORT

from tests.core.conftest import run

FIJI = HNSName("BIND-cs", "fiji.cs.washington.edu")


def test_serve_hns_requires_colocation(testbed):
    hns = testbed.make_hns(testbed.client)
    server = HrpcServer(testbed.hns_host)
    with pytest.raises(ValueError):
        serve_hns(hns, server)


def test_remote_findnsm_returns_binding(testbed):
    env = testbed.env
    hns = testbed.make_hns(testbed.hns_host)
    server = HrpcServer(testbed.hns_host)
    serve_hns(hns, server)
    server.listen(HNS_PORT)
    runtime = HrpcRuntime(testbed.client, testbed.internet)
    hns_binding = HRPCBinding(
        server.endpoint, "hns", suite="sunrpc"
    )
    binding = run(
        env, runtime.call(hns_binding, "FindNSM", str(FIJI), "HRPCBinding")
    )
    assert isinstance(binding, HRPCBinding)
    assert binding.metadata["nsm"] == "HRPCBinding-BIND-cs"


def test_remote_findnsm_rejects_server_linked_nsm(testbed):
    """An NSM linked into the HNS *server* process is not callable by a
    remote client; the service surfaces that as an error rather than
    handing out a dangling local reference."""
    env = testbed.env
    hns = testbed.make_hns(testbed.hns_host)
    nsm = testbed.make_nsm(BindBindingNSM, testbed.hns_host)
    hns.link_local_nsm(nsm)
    server = HrpcServer(testbed.hns_host)
    serve_hns(hns, server)
    server.listen(HNS_PORT)
    runtime = HrpcRuntime(testbed.client, testbed.internet)
    hns_binding = HRPCBinding(server.endpoint, "hns", suite="sunrpc")

    def scenario():
        with pytest.raises(HnsError, match="not callable remotely"):
            yield from runtime.call(
                hns_binding, "FindNSM", str(FIJI), "HRPCBinding"
            )
        return "done"

    assert run(env, scenario()) == "done"


def test_remote_findnsm_propagates_lookup_errors(testbed):
    from repro.core import ContextNotFound

    env = testbed.env
    hns = testbed.make_hns(testbed.hns_host)
    server = HrpcServer(testbed.hns_host)
    serve_hns(hns, server)
    server.listen(HNS_PORT)
    runtime = HrpcRuntime(testbed.client, testbed.internet)
    hns_binding = HRPCBinding(server.endpoint, "hns", suite="sunrpc")

    def scenario():
        with pytest.raises(ContextNotFound):
            yield from runtime.call(
                hns_binding, "FindNSM", "Nowhere::name", "HRPCBinding"
            )
        return "done"

    assert run(env, scenario()) == "done"
