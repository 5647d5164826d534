"""The federation directory."""

from repro.workloads import build_testbed
from repro.workloads.scenarios import BIND_NS, CH_NS


def run(env, gen):
    return env.run(until=env.process(gen))


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
