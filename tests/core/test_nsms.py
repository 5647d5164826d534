"""Concrete NSMs: identical interfaces, heterogeneous implementations."""

import pytest

from repro.bind import ResourceRecord, RRType
from repro.core import HNSName, NsmResult, NsmStub, serve_nsm
from repro.core.nsms import (
    BindBindingNSM,
    BindFileServiceNSM,
    BindHostAddressNSM,
    BindMailboxNSM,
    ClearinghouseBindingNSM,
    ClearinghouseFileServiceNSM,
    ClearinghouseHostAddressNSM,
    ClearinghouseMailboxNSM,
    YpBindingNSM,
    YpHostAddressNSM,
    YpMailboxNSM,
)
from repro.core.nsms.yp import YpNSM
from repro.hrpc import HrpcRuntime, HrpcServer, HRPCBinding
from repro.net.addresses import Endpoint
from repro.workloads.scenarios import BIND_NS

from tests.core.conftest import run

FIJI = HNSName("BIND-cs", "fiji.cs.washington.edu")
DLION = HNSName("CH-hcs", "dlion:hcs:uw")
SCHWARTZ = HNSName("BIND-cs", "schwartz.cs.washington.edu")
SRC = HNSName("BIND-cs", "src.projects.cs.washington.edu")
LEVY = HNSName("CH-hcs", "levy:hcs:uw")
DOCS = HNSName("CH-hcs", "docs:hcs:uw")
RAINIER = HNSName("SUNS", "rainier")
BERSHAD = HNSName("SUNS", "bershad")


def make_any_nsm(nsm_class, testbed, yp_endpoint):
    """``nsm_class`` on the client host: over the testbed's BIND or
    Clearinghouse, or over ``yp_world``'s YP server."""
    if issubclass(nsm_class, YpNSM):
        return nsm_class(
            testbed.client, "YP-cs-suns", testbed.udp, yp_endpoint, "cs-suns",
            calibration=testbed.calibration,
        )
    return testbed.make_nsm(nsm_class, testbed.client)


# ----------------------------------------------------------------------
# Binding NSMs
# ----------------------------------------------------------------------
def test_bind_binding_nsm_resolves_sun_service(testbed):
    nsm = testbed.make_nsm(BindBindingNSM, testbed.client)
    result = run(testbed.env, nsm.query(FIJI, service="DesiredService"))
    assert result.query_class == "HRPCBinding"
    assert result.value["suite"] == "sunrpc"
    assert result.value["endpoint"] == Endpoint(testbed.fiji.address, 9999)


def test_ch_binding_nsm_resolves_courier_service(testbed):
    nsm = testbed.make_nsm(ClearinghouseBindingNSM, testbed.client)
    result = run(testbed.env, nsm.query(DLION, service="PrintService"))
    assert result.query_class == "HRPCBinding"
    assert result.value["suite"] == "courier"
    assert result.value["endpoint"] == Endpoint(testbed.dlion.address, 6001)


def test_binding_nsms_share_an_interface(testbed):
    """Same query-class call shape, same standardized result fields."""
    bind_nsm = testbed.make_nsm(BindBindingNSM, testbed.client)
    ch_nsm = testbed.make_nsm(ClearinghouseBindingNSM, testbed.client)
    r1 = run(testbed.env, bind_nsm.query(FIJI, service="DesiredService"))
    r2 = run(testbed.env, ch_nsm.query(DLION, service="PrintService"))
    assert set(r1.value) == set(r2.value)


def test_binding_nsm_requires_service_param(testbed):
    nsm = testbed.make_nsm(BindBindingNSM, testbed.client)

    def scenario():
        with pytest.raises(ValueError):
            yield from nsm.query(FIJI)
        return "done"

    assert run(testbed.env, scenario()) == "done"


def test_binding_nsm_cache_differentiates_services(testbed):
    # Register a second service on fiji.
    fiji_pm = testbed.fiji.service_at(111)
    fiji_pm.register_local("OtherService", 9998)
    nsm = testbed.make_nsm(BindBindingNSM, testbed.client)
    r1 = run(testbed.env, nsm.query(FIJI, service="DesiredService"))
    r2 = run(testbed.env, nsm.query(FIJI, service="OtherService"))
    assert r1.value["endpoint"].port == 9999
    assert r2.value["endpoint"].port == 9998


def test_nsm_miss_cost_and_hit_cost(testbed):
    env = testbed.env
    nsm = testbed.make_nsm(BindBindingNSM, testbed.client)
    start = env.now
    run(env, nsm.query(FIJI, service="DesiredService"))
    miss = env.now - start
    start = env.now
    result = run(env, nsm.query(FIJI, service="DesiredService"))
    hit = env.now - start
    assert result.from_cache
    assert miss == pytest.approx(79.0, rel=0.02)
    assert hit == pytest.approx(3.0, rel=0.02)


def test_uncached_nsm_always_does_native_work(testbed):
    env = testbed.env
    nsm = testbed.make_nsm(BindBindingNSM, testbed.client, cached=False)
    run(env, nsm.query(FIJI, service="DesiredService"))
    start = env.now
    result = run(env, nsm.query(FIJI, service="DesiredService"))
    assert not result.from_cache
    assert env.now - start > 50


def test_nsm_cache_respects_ttl(testbed):
    env = testbed.env
    zone = testbed.public_server.zones[0]
    zone.replace(
        "fiji.cs.washington.edu",
        RRType.A,
        [
            ResourceRecord.a_record(
                "fiji.cs.washington.edu", str(testbed.fiji.address), ttl=100
            )
        ],
    )
    nsm = testbed.make_nsm(BindBindingNSM, testbed.client)
    run(env, nsm.query(FIJI, service="DesiredService"))
    env.run(until=env.now + 150)
    result = run(env, nsm.query(FIJI, service="DesiredService"))
    assert not result.from_cache  # expired, re-resolved natively


# ----------------------------------------------------------------------
# HostAddress NSMs
# ----------------------------------------------------------------------
def test_hostaddr_nsms_both_systems(testbed):
    bind_nsm = testbed.make_nsm(BindHostAddressNSM, testbed.client)
    ch_nsm = testbed.make_nsm(ClearinghouseHostAddressNSM, testbed.client)
    r1 = run(testbed.env, bind_nsm.query(FIJI))
    r2 = run(testbed.env, ch_nsm.query(DLION))
    assert r1.value["address"] == str(testbed.fiji.address)
    assert r2.value["address"] == str(testbed.dlion.address)


def test_hostaddr_costs_are_native(testbed):
    """Linked-in HostAddress NSMs cost exactly the native lookup."""
    env = testbed.env
    bind_nsm = testbed.make_nsm(BindHostAddressNSM, testbed.client)
    start = env.now
    run(env, bind_nsm.query(FIJI))
    assert env.now - start == pytest.approx(27.0 + 0.7, rel=0.05)  # + probe/insert
    start = env.now
    run(env, bind_nsm.query(FIJI))
    assert env.now - start == pytest.approx(0.83, rel=0.02)


@pytest.mark.parametrize(
    "nsm_class, name, miss_ms",
    [
        (ClearinghouseHostAddressNSM, DLION, 156.5028),
        (YpHostAddressNSM, RAINIER, 12.0944),
    ],
    ids=["ch", "yp"],
)
def test_ch_and_yp_hostaddr_costs_are_native(yp_world, nsm_class, name, miss_ms):
    """The CH and YP HostAddress NSMs, like BIND's: the native lookup
    plus the probe and insert on a miss, a bare cache hit on a repeat."""
    testbed, _yp_host, _domain, _server, yp_endpoint = yp_world
    env = testbed.env
    nsm = make_any_nsm(nsm_class, testbed, yp_endpoint)
    start = env.now
    run(env, nsm.query(name))
    assert env.now - start == pytest.approx(miss_ms, abs=1e-3)
    start = env.now
    assert run(env, nsm.query(name)).from_cache
    assert env.now - start == pytest.approx(0.83, abs=1e-3)


def test_ch_hostaddr_validates_local_syntax(testbed):
    ch_nsm = testbed.make_nsm(ClearinghouseHostAddressNSM, testbed.client)

    def scenario():
        with pytest.raises(ValueError):
            yield from ch_nsm.query(HNSName("CH-hcs", "not-a-ch-name"))
        return "done"

    assert run(testbed.env, scenario()) == "done"


# ----------------------------------------------------------------------
# Mail and FileService NSMs
# ----------------------------------------------------------------------
def test_mail_nsms(testbed):
    bind_mail = testbed.make_nsm(BindMailboxNSM, testbed.client)
    ch_mail = testbed.make_nsm(ClearinghouseMailboxNSM, testbed.client)
    r1 = run(
        testbed.env,
        bind_mail.query(HNSName("BIND-cs", "schwartz.cs.washington.edu")),
    )
    assert r1.value == {
        "mail_host": "june.cs.washington.edu",
        "mailbox": "schwartz",
    }
    r2 = run(testbed.env, ch_mail.query(HNSName("CH-hcs", "levy:hcs:uw")))
    assert r2.value == {"mail_host": "dlion:hcs:uw", "mailbox": "levy"}
    assert set(r1.value) == set(r2.value)


def test_file_nsms(testbed):
    bind_file = testbed.make_nsm(BindFileServiceNSM, testbed.client)
    ch_file = testbed.make_nsm(ClearinghouseFileServiceNSM, testbed.client)
    r1 = run(
        testbed.env,
        bind_file.query(HNSName("BIND-cs", "src.projects.cs.washington.edu")),
    )
    assert r1.value["volume"] == "/projects/src"
    assert r1.value["endpoint"].address == testbed.fiji.address
    r2 = run(testbed.env, ch_file.query(HNSName("CH-hcs", "docs:hcs:uw")))
    assert r2.value["volume"] == "/docs"
    assert r2.value["suite"] == "courier"


@pytest.mark.parametrize(
    "nsm_class, name, text, complaint",
    [
        (BindFileServiceNSM, SRC, "server=fiji.cs.washington.edu;volume", "'volume'"),
        (BindFileServiceNSM, SRC, "server fiji.cs.washington.edu", "'server fiji"),
        (BindFileServiceNSM, SRC, "server=fiji.cs.washington.edu", "'volume'"),
        (BindMailboxNSM, SCHWARTZ, "mailhost=june.cs.washington.edu", "'mailbox'"),
    ],
    ids=["file-bare-key", "file-no-equals", "file-missing-key", "mail-missing-key"],
)
def test_malformed_txt_record_is_refused(testbed, nsm_class, name, text, complaint):
    """A ``key=value;...`` record with a part lacking ``=`` or a required
    key missing is a ValueError naming it, and no answer is cached."""
    testbed.public_server.zones[0].replace(
        name.name, RRType.TXT, [ResourceRecord.text_record(name.name, text)]
    )
    nsm = testbed.make_nsm(nsm_class, testbed.client)

    def scenario():
        with pytest.raises(ValueError, match=complaint):
            yield from nsm.query(name)
        return "done"

    assert run(testbed.env, scenario()) == "done"
    assert len(nsm.cache) == 0


# ----------------------------------------------------------------------
# Every NSM's native client carries its own stats label
# ----------------------------------------------------------------------
#: (NSM, name, query params, the counter its one query produces)
LABEL_CASES = [
    (BindBindingNSM, FIJI, {"service": "DesiredService"},
     "bind.nsm-binding@client.remote_lookups"),
    (BindHostAddressNSM, FIJI, {}, "bind.nsm-hostaddr@client.remote_lookups"),
    (BindMailboxNSM, SCHWARTZ, {}, "bind.nsm-mail@client.remote_lookups"),
    (BindFileServiceNSM, SRC, {}, "bind.nsm-file@client.remote_lookups"),
    (ClearinghouseBindingNSM, DLION, {"service": "PrintService"},
     "ch.nsm-chbind@client.lookups"),
    (ClearinghouseHostAddressNSM, DLION, {}, "ch.nsm-ch@client.lookups"),
    (ClearinghouseMailboxNSM, LEVY, {}, "ch.nsm-chmail@client.lookups"),
    (ClearinghouseFileServiceNSM, DOCS, {}, "ch.nsm-chfile@client.lookups"),
    (YpBindingNSM, RAINIER, {"service": "YpNamedService"},
     "yp.nsm-ypbind@client.lookups"),
    (YpHostAddressNSM, RAINIER, {}, "yp.nsm-yp@client.lookups"),
    (YpMailboxNSM, BERSHAD, {}, "yp.nsm-ypmail@client.lookups"),
]


@pytest.mark.parametrize(
    "nsm_class, name, params, counter",
    LABEL_CASES,
    ids=[case[0].__name__ for case in LABEL_CASES],
)
def test_native_client_stats_label(yp_world, nsm_class, name, params, counter):
    """One query counts against ``<family>.<label>@<host>``: the stats
    names the scenario digests see only for two of the eleven NSMs."""
    testbed, _yp_host, _domain, _server, yp_endpoint = yp_world
    nsm = make_any_nsm(nsm_class, testbed, yp_endpoint)
    run(testbed.env, nsm.query(name, **params))
    counters = testbed.env.stats.counters()
    assert counters.get(counter, 0) >= 1, sorted(k for k in counters if "@client." in k)


# ----------------------------------------------------------------------
# NSM framework mechanics
# ----------------------------------------------------------------------
def test_nsm_result_validates_interface():
    with pytest.raises(Exception):
        NsmResult("HRPCBinding", {"wrong": 1})


def test_nsm_subclass_must_set_query_class(testbed):
    from repro.core.nsm import NamingSemanticsManager

    class Bad(NamingSemanticsManager):
        pass

    with pytest.raises(TypeError):
        Bad(testbed.client, BIND_NS)


def test_testbed_builds_only_its_own_families(testbed):
    """``make_nsm`` picks BIND or the Clearinghouse from the class's
    family; the testbed runs no YP server."""
    assert testbed.make_nsm(BindMailboxNSM, testbed.client).name_service == BIND_NS
    assert testbed.make_nsm(ClearinghouseMailboxNSM, testbed.client).name_service == "CH-hcs"
    with pytest.raises(TypeError):
        testbed.make_nsm(YpMailboxNSM, testbed.client)


def test_serve_nsm_and_remote_stub(testbed):
    env = testbed.env
    nsm = testbed.make_nsm(BindBindingNSM, testbed.nsm_host)
    server = HrpcServer(testbed.nsm_host)
    program = serve_nsm(server, nsm)
    endpoint = server.listen(9100)
    runtime = HrpcRuntime(testbed.client, testbed.internet)
    stub = NsmStub(testbed.client, runtime)
    binding = HRPCBinding(endpoint, program, suite="sunrpc")
    result = run(env, stub.call(binding, FIJI, service="DesiredService"))
    assert result.value["endpoint"].port == 9999


def test_serve_nsm_requires_colocation(testbed):
    nsm = testbed.make_nsm(BindBindingNSM, testbed.client)
    server = HrpcServer(testbed.nsm_host)
    with pytest.raises(ValueError):
        serve_nsm(server, nsm)


def test_stub_without_runtime_rejects_remote(testbed):
    stub = NsmStub(testbed.client)
    binding = HRPCBinding(
        Endpoint(testbed.nsm_host.address, 9100), "nsm.x", suite="sunrpc"
    )

    def scenario():
        with pytest.raises(ValueError):
            yield from stub.call(binding, FIJI, service="s")
        return "done"

    assert run(testbed.env, scenario()) == "done"


def test_stub_prefers_local_copy(testbed):
    """A binding naming a locally linked NSM short-circuits the network."""
    env = testbed.env
    local_nsm = testbed.make_nsm(BindBindingNSM, testbed.client)
    stub = NsmStub(testbed.client, local_nsms={local_nsm.name: local_nsm})
    binding = HRPCBinding(
        Endpoint(testbed.nsm_host.address, 9100),
        f"nsm.{local_nsm.name}",
        suite="sunrpc",
        metadata={"nsm": local_nsm.name},
    )
    # No NSM server was ever started on nsm_host:9100 — this would fail
    # if the stub actually went remote.
    result = run(env, stub.call(binding, FIJI, service="DesiredService"))
    assert result.value["endpoint"].port == 9999
