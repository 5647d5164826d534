"""Integrating a third system type (Sun Yellow Pages) into the HNS.

The effort claimed by the paper — "adding a new system type simply
requires building NSMs for those queries to be supported and
registering their existence with the HNS" — measured here in full:
stand up ypserv, write three small NSMs (already in
``repro.core.nsms.yp``), register, and watch unmodified clients use it.
"""

import pytest

from repro.core import HNSName, HnsAdministrator, NsmStub, serve_nsm
from repro.core.nsms.yp import YpBindingNSM, YpHostAddressNSM, YpMailboxNSM
from repro.hrpc import HrpcRuntime, HrpcServer
from repro.yellowpages import NoSuchKey, NoSuchMap, YpClient, YpDomain, YpMap, YpServer


def run(env, gen):
    return env.run(until=env.process(gen))


# ----------------------------------------------------------------------
# The YP substrate itself
# ----------------------------------------------------------------------
def test_yp_map_mechanics():
    m = YpMap("hosts.byname")
    m.set("rainier", "128.95.2.1 rainier")
    assert m.match("rainier").startswith("128.95.2.1")
    assert m.order == 1
    assert m.keys() == ["rainier"]
    assert m.delete("rainier")
    assert not m.delete("rainier")
    with pytest.raises(NoSuchKey):
        m.match("rainier")
    with pytest.raises(ValueError):
        m.set("", "x")
    with pytest.raises(ValueError):
        YpMap("")


def test_yp_domain_mechanics():
    d = YpDomain("cs")
    d.map("hosts.byname").set("a", "1.2.3.4")
    assert d.map_names() == ["hosts.byname"]
    assert len(d) == 1
    with pytest.raises(NoSuchMap):
        d.existing_map("ghost")
    with pytest.raises(ValueError):
        YpDomain("")


def test_yp_client_match(yp_world):
    testbed, yp_host, domain, server, endpoint = yp_world
    client = YpClient(testbed.client, testbed.udp, endpoint, "cs-suns")
    value = run(testbed.env, client.match("hosts.byname", "rainier"))
    assert value.split()[0] == str(yp_host.address)
    assert run(testbed.env, client.map_names()) == ["hosts.byname", "mail.aliases"]


def test_yp_client_errors(yp_world):
    testbed, yp_host, domain, server, endpoint = yp_world
    client = YpClient(testbed.client, testbed.udp, endpoint, "cs-suns")
    bad_domain = YpClient(testbed.client, testbed.udp, endpoint, "nowhere")

    def scenario():
        with pytest.raises(NoSuchKey):
            yield from client.match("hosts.byname", "ghost")
        with pytest.raises(NoSuchMap):
            yield from client.match("ghost.map", "x")
        with pytest.raises(NoSuchMap):
            yield from bad_domain.match("hosts.byname", "rainier")
        return "done"

    assert run(testbed.env, scenario()) == "done"


def test_yp_server_validation(yp_world):
    testbed, yp_host, domain, server, endpoint = yp_world
    with pytest.raises(ValueError):
        server.add_domain(domain)
    with pytest.raises(ValueError):
        YpServer(yp_host, match_cost_ms=-1)


# ----------------------------------------------------------------------
# Full integration: YP joins the federation
# ----------------------------------------------------------------------
def integrate_yp(testbed, endpoint):
    admin = HnsAdministrator(testbed.make_metastore(testbed.meta_host))

    def register():
        yield from admin.register_name_service(
            "YP-cs-suns", "bind", "ypmaster.cs.washington.edu", endpoint.port
        )
        yield from admin.register_context("SUNS", "YP-cs-suns")
        for qc, offset in (
            ("HRPCBinding", 0),
            ("HostAddress", 1),
            ("MailboxLocation", 2),
        ):
            yield from admin.register_nsm(
                nsm_name=f"{qc}-YP-cs-suns",
                query_class=qc,
                name_service="YP-cs-suns",
                host_name="nsmhost.cs.washington.edu",
                host_context="BIND-srv",
                program=f"nsm.{qc}-YP-cs-suns",
                suite="sunrpc",
                port=9700 + offset,
            )

    run(testbed.env, register())


def test_unmodified_client_binds_through_yp(yp_world):
    testbed, yp_host, domain, server, endpoint = yp_world
    env = testbed.env
    integrate_yp(testbed, endpoint)

    # Deploy the binding NSM remotely (shared by everyone).
    nsm = YpBindingNSM(
        testbed.nsm_host, "YP-cs-suns", testbed.udp, endpoint, "cs-suns",
        calibration=testbed.calibration,
    )
    nsm_server = HrpcServer(testbed.nsm_host, name="yp-nsms")
    serve_nsm(nsm_server, nsm)
    nsm_server.listen(9700)

    hns = testbed.make_hns(testbed.client)
    runtime = HrpcRuntime(testbed.client, testbed.internet)
    stub = NsmStub(testbed.client, runtime)
    name = HNSName("SUNS", "rainier")

    from repro.hrpc import HRPCBinding

    def client():
        binding = yield from hns.find_nsm(name, "HRPCBinding")
        result = yield from stub.call(binding, name, service="YpNamedService")
        service_binding = result.value
        reply = yield from runtime.call(
            HRPCBinding(
                service_binding["endpoint"],
                service_binding["program"],
                suite=service_binding["suite"],
            ),
            "ping",
            "via-yp",
        )
        return reply

    assert run(env, client()) == ("yp-pong", "via-yp")


def test_yp_hostaddr_and_mail_nsms(yp_world):
    testbed, yp_host, domain, server, endpoint = yp_world
    env = testbed.env
    hostaddr = YpHostAddressNSM(
        testbed.client, "YP-cs-suns", testbed.udp, endpoint, "cs-suns",
        calibration=testbed.calibration,
    )
    result = run(env, hostaddr.query(HNSName("SUNS", "rainier")))
    assert result.value["address"] == str(yp_host.address)
    # Cached on repeat.
    result = run(env, hostaddr.query(HNSName("SUNS", "rainier")))
    assert result.from_cache

    mail = YpMailboxNSM(
        testbed.client, "YP-cs-suns", testbed.udp, endpoint, "cs-suns",
        calibration=testbed.calibration,
    )
    result = run(env, mail.query(HNSName("SUNS", "bershad")))
    assert result.value == {"mail_host": "rainier", "mailbox": "bershad"}


def test_native_yp_updates_visible_globally(yp_world):
    """ypserv's own map updates flow through with no reregistration."""
    testbed, yp_host, domain, server, endpoint = yp_world
    env = testbed.env
    hostaddr = YpHostAddressNSM(
        testbed.client, "YP-cs-suns", testbed.udp, endpoint, "cs-suns",
        calibration=testbed.calibration,
    )
    domain.map("hosts.byname").set("baker", "128.95.2.9 baker")
    result = run(env, hostaddr.query(HNSName("SUNS", "baker")))
    assert result.value["address"] == "128.95.2.9"


def test_binding_nsm_requires_service_param(yp_world):
    testbed, yp_host, domain, server, endpoint = yp_world
    nsm = YpBindingNSM(
        testbed.client, "YP-cs-suns", testbed.udp, endpoint, "cs-suns",
        calibration=testbed.calibration,
    )

    def scenario():
        with pytest.raises(ValueError):
            yield from nsm.query(HNSName("SUNS", "rainier"))
        return "done"

    assert run(testbed.env, scenario()) == "done"
