"""Administration (evolvability) and the equation (1) model."""

import pytest

from repro.core import ColocationModel, HNSName, HnsAdministrator, NsmNotFound
from repro.core.metastore import META_ORIGIN
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


def test_model_validation():
    with pytest.raises(ValueError):
        ColocationModel(33, cache_miss_ms=100, cache_hit_ms=100)


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
    """An NSM withdrawn from the meta zone (its record and its query
    mapping) is no longer found."""
    env = testbed.env
    metastore = testbed.make_metastore(testbed.meta_host)
    run(env, metastore.unregister(f"MailboxLocation-{BIND_NS}.nsm.{META_ORIGIN}"))
    run(env, metastore.unregister(f"MailboxLocation.{BIND_NS}.q.{META_ORIGIN}"))
    hns = testbed.make_hns(testbed.client)

    def scenario():
        with pytest.raises(NsmNotFound):
            yield from hns.find_nsm(
                HNSName("BIND-cs", "schwartz.cs.washington.edu"), "MailboxLocation"
            )
        return "done"

    assert run(env, scenario()) == "done"
