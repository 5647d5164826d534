"""FindNSM: the six-mapping sequence, caching, and error paths."""

import pytest

from repro.core import (
    HNSName,
    HnsError,
    LocalNsmBinding,
    NsmNotFound,
    QueryClassUnsupported,
)
from repro.bind import RRType
from repro.bind.resolver import cache_key
from repro.core.metastore import MetaStore
from repro.core.nsms import BindBindingNSM, BindHostAddressNSM
from repro.hrpc import HRPCBinding
from repro.net import Endpoint
from repro.resolution import DEFAULT_RESOLUTION_POLICY, FastPathPolicy, PolicySet
from repro.workloads.scenarios import BIND_NS, NSM_PORT

from tests.core.conftest import run

FIJI = HNSName("BIND-cs", "fiji.cs.washington.edu")


def test_findnsm_returns_binding_for_remote_nsm(testbed):
    hns = testbed.make_hns(testbed.client)
    binding = run(testbed.env, hns.find_nsm(FIJI, "HRPCBinding"))
    assert isinstance(binding, HRPCBinding)
    assert binding.program == f"nsm.HRPCBinding-{BIND_NS}"
    assert binding.endpoint.address == testbed.nsm_host.address
    assert binding.endpoint.port == NSM_PORT
    assert binding.metadata["nsm"] == f"HRPCBinding-{BIND_NS}"


def test_findnsm_returns_local_binding_when_linked(testbed):
    hns = testbed.make_hns(testbed.client)
    nsm = testbed.make_nsm(BindBindingNSM, testbed.client)
    hns.link_local_nsm(nsm)
    binding = run(testbed.env, hns.find_nsm(FIJI, "HRPCBinding"))
    assert isinstance(binding, LocalNsmBinding)
    assert binding.nsm is nsm


def test_findnsm_unknown_query_class(testbed):
    hns = testbed.make_hns(testbed.client)

    def scenario():
        with pytest.raises(QueryClassUnsupported):
            yield from hns.find_nsm(FIJI, "Astrology")
        return "done"

    assert run(testbed.env, scenario()) == "done"


def test_findnsm_unknown_context(testbed):
    from repro.core import ContextNotFound

    hns = testbed.make_hns(testbed.client)

    def scenario():
        with pytest.raises(ContextNotFound):
            yield from hns.find_nsm(HNSName("Nowhere", "x"), "HRPCBinding")
        return "done"

    assert run(testbed.env, scenario()) == "done"


def test_findnsm_cold_cost_matches_paper_decomposition(testbed):
    """Cold FindNSM = six missing mappings ~ (460 - import machinery - NSM work)."""
    env = testbed.env
    hns = testbed.make_hns(testbed.client)
    start = env.now
    run(env, hns.find_nsm(FIJI, "HRPCBinding"))
    cold = env.now - start
    assert cold == pytest.approx(287.7, rel=0.02)


def test_findnsm_warm_cost_is_six_cache_hits(testbed):
    env = testbed.env
    hns = testbed.make_hns(testbed.client)
    run(env, hns.find_nsm(FIJI, "HRPCBinding"))
    start = env.now
    run(env, hns.find_nsm(FIJI, "HRPCBinding"))
    warm = env.now - start
    # 6 demarshalled hits (~0.83 each) + fixed bookkeeping.
    assert warm == pytest.approx(6 * 0.83 + 2.0, rel=0.02)


def test_findnsm_caching_gain_matches_paper_shape(testbed):
    """'460 msec ... reduced to 88' — a large multiple either way."""
    env = testbed.env
    hns = testbed.make_hns(testbed.client)
    start = env.now
    run(env, hns.find_nsm(FIJI, "HRPCBinding"))
    cold = env.now - start
    start = env.now
    run(env, hns.find_nsm(FIJI, "HRPCBinding"))
    warm = env.now - start
    assert cold / warm > 5.0


def test_findnsm_shares_name_service_entries_across_contexts(testbed):
    """'if more than one context is stored on the same name service, the
    binding information for that name service need only be stored once'
    — a second context on the same NS misses only its own context entry."""
    env = testbed.env
    ms = testbed.make_metastore(testbed.client)
    run(env, ms.register_context("BIND-alias", BIND_NS))
    hns = testbed.make_hns(testbed.client)
    run(env, hns.find_nsm(FIJI, "HRPCBinding"))  # warm everything
    start = env.now
    run(
        env,
        hns.find_nsm(HNSName("BIND-alias", "june.cs.washington.edu"), "HRPCBinding"),
    )
    second = env.now - start
    # Only mapping 1 (the new context) misses; the other five hit.
    assert second < 0.30 * 287


def test_nsm_not_linked_and_not_servable_raises(testbed):
    env = testbed.env
    ms = testbed.make_metastore(testbed.client)
    admin_gen = ms.register_nsm(
        __import__("repro.core", fromlist=["NsmRecord"]).NsmRecord(
            name="LinkOnly",
            query_class="MailboxLocation",
            name_service=BIND_NS,
            host_name="nowhere.cs.washington.edu",
            host_context="BIND-srv",
            program="nsm.LinkOnly",
            suite="sunrpc",
            port=0,
        )
    )
    run(env, admin_gen)
    run(env, ms.register_query_mapping(BIND_NS, "MailboxLocation", "LinkOnly"))
    hns = testbed.make_hns(testbed.client)

    def scenario():
        with pytest.raises(NsmNotFound):
            yield from hns.find_nsm(FIJI, "MailboxLocation")
        return "done"

    assert run(env, scenario()) == "done"


def test_missing_static_hostaddr_nsm_raises(testbed):
    from repro.core.hns import HNS

    hns = HNS(testbed.make_metastore(testbed.client))  # nothing linked

    def scenario():
        with pytest.raises(HnsError):
            yield from hns.find_nsm(FIJI, "HRPCBinding")
        return "done"

    assert run(testbed.env, scenario()) == "done"


def test_link_validation(testbed):
    hns = testbed.make_hns(testbed.client)
    with pytest.raises(ValueError):
        hns.link_host_address_nsm(
            BIND_NS, testbed.make_nsm(BindBindingNSM, testbed.client)
        )
    with pytest.raises(ValueError):
        hns.link_host_address_nsm(
            BIND_NS, testbed.make_nsm(BindHostAddressNSM, testbed.nsm_host)
        )
    with pytest.raises(ValueError):
        hns.link_local_nsm(testbed.make_nsm(BindBindingNSM, testbed.nsm_host))


def test_hns_preload_guarantees_hits(testbed):
    """'preloading ... required to guarantee HNS cache hits'."""
    env = testbed.env
    hns = testbed.make_hns(testbed.client)
    loaded = run(env, hns.preload())
    assert loaded > 10
    start = env.now
    run(env, hns.find_nsm(FIJI, "HRPCBinding"))
    first_after_preload = env.now - start
    assert first_after_preload < 10.0  # all six mappings hit


def test_preload_cost_matches_paper(testbed):
    """'The actual preload cost was measured to be about 390 msec.'"""
    env = testbed.env
    hns = testbed.make_hns(testbed.client)
    start = env.now
    run(env, hns.preload())
    assert env.now - start == pytest.approx(390.0, rel=0.1)


# ----------------------------------------------------------------------
# The batched path's address stage: the NSM host's meta ``addr`` record,
# read in FindNSM's own frame.  Its three outcomes answer with the same
# binding, at the simulated instants the stage took when it ran through
# generators of its own.
# ----------------------------------------------------------------------
FAST = PolicySet(resolution=DEFAULT_RESOLUTION_POLICY, fast_path=FastPathPolicy())
ADDR_OWNER = f"{MetaStore.host_label('nsmhost.cs.washington.edu')}.addr.hns"


def address_stage(testbed, outcome):
    """A FAST FindNSM whose address stage has ``outcome``: the binding,
    the simulated ms it took, and the fallback count."""
    env = testbed.env
    if outcome == "fallback":  # the host was registered without a record
        run(env, testbed.make_metastore(testbed.meta_host).unregister(ADDR_OWNER))
    hns = testbed.make_hns(testbed.client, policies=FAST)
    if outcome != "fallback":
        run(env, hns.find_nsm(FIJI, "HRPCBinding"))  # warm every mapping
    if outcome == "miss":
        assert hns.metastore.cache.invalidate(cache_key(ADDR_OWNER, RRType.UNSPEC))
    start = env.now
    binding = run(env, hns.find_nsm(FIJI, "HRPCBinding"))
    fallbacks = env.stats.counters().get("hns.fast_path.addr_fallbacks", 0)
    return binding, env.now - start, fallbacks


@pytest.mark.parametrize(
    "outcome, sim_ms, fallbacks",
    [
        # a probe and a copy: the address record is cached
        ("hit", 5.32, 0),
        # the resolver fetches the record from the meta server
        ("miss", 56.2123, 0),
        # a cold FindNSM whose addr lookup is NXDOMAIN: mappings 4-6
        ("fallback", 254.9843, 1),
    ],
)
def test_the_address_stage_answers_alike_at_the_pinned_instant(
    testbed, outcome, sim_ms, fallbacks
):
    binding, took, fell_back = address_stage(testbed, outcome)
    assert binding == HRPCBinding(
        endpoint=Endpoint(testbed.nsm_host.address, NSM_PORT),
        program=f"nsm.HRPCBinding-{BIND_NS}",
        suite="sunrpc",
        metadata={"nsm": f"HRPCBinding-{BIND_NS}", "name_service": BIND_NS},
    )
    assert took == pytest.approx(sim_ms, abs=1e-9)
    assert fell_back == fallbacks


@pytest.mark.parametrize(
    "outcome, host_attrs, addr_attrs",
    [
        ("hit", {}, {"outcome": "hit", "addr": "128.95.1.8"}),
        ("miss", {}, {"outcome": "miss", "role": "leader", "addr": "128.95.1.8"}),
        ("fallback", {"fallback": True}, {"outcome": "miss", "role": "leader"}),
    ],
)
def test_a_traced_address_stage_keeps_its_spans(testbed, outcome, host_attrs, addr_attrs):
    testbed.env.obs.enable()
    address_stage(testbed, outcome)
    obs = testbed.env.obs
    find = obs.spans_named("hns.find_nsm")[-1]
    (host,) = [s for s in obs.spans_named("hns.resolve_host_fast") if s.trace_id == find.trace_id]
    (addr,) = [s for s in obs.spans_named("meta.host_address") if s.trace_id == find.trace_id]
    assert host.parent_id == find.span_id and addr.parent_id == host.span_id
    nsm_host = {"host": "nsmhost.cs.washington.edu"}
    assert host.attrs == {**nsm_host, **host_attrs}
    assert list(addr.attrs.items()) == list({**nsm_host, **addr_attrs}.items())
    assert addr.status == ("error" if outcome == "fallback" else "ok")
    assert find.attrs["outcome"] == "remote"
