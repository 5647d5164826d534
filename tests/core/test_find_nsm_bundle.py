"""Batched meta lookups: find_nsm_bundle vs the sequential trio."""

import dataclasses

import pytest

from repro.core import ContextNotFound, HNSName, NsmNotFound
from repro.resolution import DEFAULT_RESOLUTION_POLICY, FastPathPolicy, PolicySet
from repro.workloads.scenarios import BIND_NS

from tests.core.conftest import run


FAST = PolicySet(resolution=DEFAULT_RESOLUTION_POLICY, fast_path=FastPathPolicy())


def meta_requests(env):
    return env.stats.counter("bind.meta-bind.requests").value


def test_cold_bundle_is_one_round_trip(testbed):
    """Mappings 1-3 cold: one chained batch instead of three lookups."""
    ms = testbed.make_metastore(testbed.client, policies=FAST)
    env = testbed.env
    before = meta_requests(env)
    ns_name, nsm_name, record = run(
        env, ms.find_nsm_bundle("BIND-cs", "HRPCBinding")
    )
    assert meta_requests(env) - before == 1
    assert ns_name == BIND_NS
    assert nsm_name == f"HRPCBinding-{BIND_NS}"
    assert record.program == f"nsm.{nsm_name}"


@pytest.mark.parametrize(
    "fast_path, batched",
    [
        (FastPathPolicy(), True),
        (FastPathPolicy(coalesce=False), True),
        (FastPathPolicy(refresh_ahead_fraction=0.0), True),
        (FastPathPolicy(batch_meta_lookups=False), False),
        (FastPathPolicy.disabled(), False),
    ],
    ids=["full", "no-coalescing", "no-refresh", "no-batching", "disabled"],
)
def test_cold_find_nsm_round_trips(testbed, fast_path, batched):
    """A cold FindNSM is six request/response exchanges in the paper's
    prototype (five meta lookups plus the native HostAddress lookup);
    with batched meta lookups it is two (one chained batch covering
    mappings 1-3, one meta addr lookup covering 4-6)."""
    env = testbed.env
    hns = testbed.make_hns(
        testbed.client, policies=dataclasses.replace(FAST, fast_path=fast_path)
    )
    public = env.stats.counter("bind.public-bind.requests")
    before = meta_requests(env) + public.value
    binding = run(
        env, hns.find_nsm(HNSName("BIND-cs", "fiji.cs.washington.edu"), "HRPCBinding")
    )
    requests = meta_requests(env) + public.value - before
    # <=2 round trips batched, exactly the paper's 6 without, and every
    # configuration produces the same binding.
    assert requests <= 2 if batched else requests == 6
    assert binding.program == f"nsm.HRPCBinding-{BIND_NS}"


def test_bundle_matches_sequential_mappings(testbed):
    """The batch answers exactly what the three sequential calls do."""
    env = testbed.env
    fast = testbed.make_metastore(testbed.client, policies=FAST)
    slow = testbed.make_metastore(testbed.client)
    bundle = run(env, fast.find_nsm_bundle("BIND-cs", "MailboxLocation"))
    ns_name = run(env, slow.context_to_name_service("BIND-cs"))
    nsm_name = run(env, slow.nsm_name_for(ns_name, "MailboxLocation"))
    record = run(env, slow.nsm_record(nsm_name))
    assert bundle == (ns_name, nsm_name, record)


def test_warm_bundle_sends_nothing(testbed):
    """A fully cached prefix is resolved locally: zero datagrams."""
    ms = testbed.make_metastore(testbed.client, policies=FAST)
    env = testbed.env
    first = run(env, ms.find_nsm_bundle("BIND-cs", "HRPCBinding"))
    before = meta_requests(env)
    second = run(env, ms.find_nsm_bundle("BIND-cs", "HRPCBinding"))
    assert second == first
    assert meta_requests(env) - before == 0


def test_bundle_unknown_context_raises(testbed):
    ms = testbed.make_metastore(testbed.client, policies=FAST)

    def scenario():
        with pytest.raises(ContextNotFound):
            yield from ms.find_nsm_bundle("Mars", "HRPCBinding")
        return "done"

    assert run(testbed.env, scenario()) == "done"


def test_bundle_unknown_query_class_raises(testbed):
    """A broken chain (no q mapping) surfaces as the sequential path's
    NsmNotFound, not as a batch-level error."""
    ms = testbed.make_metastore(testbed.client, policies=FAST)

    def scenario():
        with pytest.raises(NsmNotFound):
            yield from ms.find_nsm_bundle("BIND-cs", "MailboxLocation2")
        return "done"

    assert run(testbed.env, scenario()) == "done"


def test_bundle_missing_nsm_record_raises(testbed):
    """The q mapping resolves but its NSM record is gone: stage-2 error."""
    ms = testbed.make_metastore(testbed.client, policies=FAST)
    env = testbed.env
    run(env, ms.unregister(f"HRPCBinding-{BIND_NS}.nsm.hns"))

    def scenario():
        with pytest.raises(NsmNotFound):
            yield from ms.find_nsm_bundle("BIND-cs", "HRPCBinding")
        return "done"

    assert run(env, scenario()) == "done"
