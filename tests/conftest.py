"""Fixtures shared across test packages."""

import pytest

from repro.hrpc import HrpcServer, Portmapper
from repro.workloads import build_testbed
from repro.yellowpages import YpDomain, YpServer


@pytest.fixture
def yp_world():
    """The canned testbed plus a third system type: a YP server
    (``ypmaster``, domain ``cs-suns``) whose host ``rainier`` also runs
    a portmapper and a Sun RPC service.  Returns ``(testbed, yp_host,
    domain, server, endpoint)``."""
    testbed = build_testbed(seed=44)
    yp_host = testbed.internet.add_host("ypmaster", system_type="sun")
    domain = YpDomain("cs-suns")
    hosts = domain.map("hosts.byname")
    hosts.set("rainier", f"{yp_host.address} rainier")
    domain.map("mail.aliases").set("bershad", "rainier|bershad")
    server = YpServer(yp_host, domains=[domain])
    endpoint = server.listen()
    # rainier runs a portmapper + a Sun RPC service, like any Sun host.
    pm = Portmapper(yp_host, calibration=testbed.calibration)
    pm.listen()
    pm.register_local("YpNamedService", 9800)
    rpc = HrpcServer(yp_host)

    def ping(ctx, *args):
        yield ctx.host.cpu.compute(0.2)
        return ("yp-pong",) + args

    rpc.program("YpNamedService").procedure("ping", ping)
    rpc.listen(9800)
    return testbed, yp_host, domain, server, endpoint
