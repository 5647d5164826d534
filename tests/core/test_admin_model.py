"""Administration (evolvability) and the equation (1) model."""

import pytest

from repro.core import ColocationModel, HNSName, HnsAdministrator
from repro.core.model import preload_breakeven_calls
from repro.core.nsms import BindHostAddressNSM
from repro.workloads.scenarios import BIND_NS

from tests.core.conftest import run


# ----------------------------------------------------------------------
# Equation (1)
# ----------------------------------------------------------------------
def test_q_threshold_matches_paper_hns_case():
    """'estimating C(remote call) as 33, C(cache hit) as 261, and
    C(cache miss) as 547, ... must exceed ... by an additional 11%'."""
    model = ColocationModel(remote_call_ms=33, cache_miss_ms=547, cache_hit_ms=261)
    assert model.q_threshold() == pytest.approx(0.115, abs=0.005)


def test_q_threshold_matches_paper_nsm_case():
    """'estimating C(cache hit) as 147 and C(cache miss) as 225, an
    additional 42% cache hit' (with the remote call at 33)."""
    model = ColocationModel(remote_call_ms=33, cache_miss_ms=225, cache_hit_ms=147)
    assert model.q_threshold() == pytest.approx(0.42, abs=0.01)


def test_costs_cross_exactly_at_threshold():
    model = ColocationModel(remote_call_ms=40, cache_miss_ms=500, cache_hit_ms=100)
    q = model.q_threshold()
    p = 0.3
    assert model.remote_cost(p, q) == pytest.approx(model.local_cost(p))
    assert model.remote_preferable(p, q + 0.01)
    assert not model.remote_preferable(p, q - 0.01)


def test_model_validation():
    with pytest.raises(ValueError):
        ColocationModel(33, cache_miss_ms=100, cache_hit_ms=100)
    model = ColocationModel(33, 500, 100)
    with pytest.raises(ValueError):
        model.local_cost(1.5)
    with pytest.raises(ValueError):
        model.remote_cost(0.9, 0.2)  # p+q > 1


def test_preload_breakeven_is_about_two_calls():
    """'preloading seems to be effective in situations where two or more
    calls to the HNS for different context/query classes will be made.'"""
    calls = preload_breakeven_calls(preload_ms=390, miss_ms=287.7, hit_ms=7.0)
    assert 1.0 < calls < 2.0
    with pytest.raises(ValueError):
        preload_breakeven_calls(390, 10, 10)


# ----------------------------------------------------------------------
# Administration: evolving the system
# ----------------------------------------------------------------------
def test_adding_a_new_system_type(testbed):
    """The headline scenario: a new system type joins; existing clients
    gain access with zero modification."""
    env = testbed.env
    # A new BIND-like service appears on a new host.
    from repro.bind import BindServer, ResourceRecord, Zone

    newhost = testbed.internet.add_host("newsys")
    zone = Zone("newdept.edu")
    zone.add(ResourceRecord.a_record("box.newdept.edu", "128.95.1.200"))
    new_ns = BindServer(newhost, zones=[zone], name="new-bind")
    new_endpoint = new_ns.listen()

    admin = HnsAdministrator(testbed.make_metastore(testbed.meta_host))

    def integrate():
        yield from admin.register_name_service(
            "BIND-newdept", "bind", "newsys.cs.washington.edu", 53
        )
        yield from admin.register_context("NEWDEPT", "BIND-newdept")
        yield from admin.register_nsm(
            nsm_name="HostAddress-BIND-newdept",
            query_class="HostAddress",
            name_service="BIND-newdept",
            host_name="nsmhost.cs.washington.edu",
            host_context="BIND-srv",
            program="nsm.HostAddress-BIND-newdept",
            suite="sunrpc",
            port=9200,
        )

    run(env, integrate())

    # An unmodified HNS client can now find the new system's NSM.
    hns = testbed.make_hns(testbed.client)
    binding = run(
        env, hns.find_nsm(HNSName("NEWDEPT", "box.newdept.edu"), "HostAddress")
    )
    assert binding.program == "nsm.HostAddress-BIND-newdept"


def test_native_updates_visible_globally(testbed):
    """Direct access: a change made through the *native* interface is
    seen by HNS clients without any reregistration."""
    env = testbed.env
    from repro.bind import ResourceRecord

    nsm = testbed.make_nsm(BindHostAddressNSM, testbed.client)
    name = HNSName("BIND-cs", "newborn.cs.washington.edu")

    def before():
        from repro.bind import NameNotFound

        with pytest.raises(NameNotFound):
            yield from nsm.query(name)
        return "absent"

    assert run(env, before()) == "absent"
    # A native application adds the host directly in the local BIND.
    testbed.public_server.zones[0].add(
        ResourceRecord.a_record("newborn.cs.washington.edu", "128.95.1.201")
    )
    result = run(env, nsm.query(name))
    assert result.value["address"] == "128.95.1.201"


def test_admin_validation(testbed):
    admin = HnsAdministrator(testbed.make_metastore(testbed.meta_host))

    def scenario():
        with pytest.raises(ValueError):
            yield from admin.register_name_service("X", "oracle", "h", 1)
        return "done"

    assert run(testbed.env, scenario()) == "done"


def test_unregister_nsm(testbed):
    env = testbed.env
    admin = HnsAdministrator(testbed.make_metastore(testbed.meta_host))
    run(env, admin.unregister_nsm(f"MailboxLocation-{BIND_NS}", "MailboxLocation", BIND_NS))
    hns = testbed.make_hns(testbed.client)

    def scenario():
        from repro.core import NsmNotFound

        with pytest.raises(NsmNotFound):
            yield from hns.find_nsm(
                HNSName("BIND-cs", "schwartz.cs.washington.edu"), "MailboxLocation"
            )
        return "done"

    assert run(env, scenario()) == "done"
