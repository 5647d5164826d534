"""Batched meta lookups: find_nsm_bundle vs the sequential trio."""

import dataclasses

import pytest

from repro.bind import NameNotFound, RRType
from repro.bind.resolver import cache_key
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


# ----------------------------------------------------------------------
# The cached prefix, stage by stage: mapping k (0-2) of
# ``find_nsm_bundle("BIND-cs", "HRPCBinding")`` is probed at the instant
# its probe charge is made, a negative entry raises after that charge,
# and a hit is counted (and renewed ahead of expiry) after its copy.
# ----------------------------------------------------------------------
STAGE_OWNERS = [
    "BIND-cs.ctx.hns",
    f"HRPCBinding.{BIND_NS}.q.hns",
    f"HRPCBinding-{BIND_NS}.nsm.hns",
]
STAGES = pytest.mark.parametrize("stage", [0, 1, 2])


def warm_store(testbed):
    """A FAST meta store whose cache holds all three mappings, and the
    bundle it answers."""
    ms = testbed.make_metastore(testbed.client, policies=FAST)
    bundle = run(testbed.env, ms.find_nsm_bundle("BIND-cs", "HRPCBinding"))
    return ms, bundle


def stage_entry(ms, stage):
    key = cache_key(STAGE_OWNERS[stage], RRType.UNSPEC)
    return key, dict(ms.cache.entries(include_stale=True)).get(key)


def probe_instant(ms, stage, start):
    """When a bundle started at ``start`` on an idle CPU makes mapping
    ``stage``'s probe: every earlier mapping a probe and a copy."""
    calibration = ms.calibration
    now = start
    for earlier in range(stage):
        now += calibration.cache_probe_ms
        now += ms.cache.hit_cost(stage_entry(ms, earlier)[1])
    return now


@STAGES
def test_negative_entry_at_a_stage_raises_after_its_probe(testbed, stage):
    env = testbed.env
    ms, _ = warm_store(testbed)
    owner = STAGE_OWNERS[stage]
    # NXDOMAIN for mapping ``stage``, cached negatively by a plain lookup.
    run(env, ms.unregister(owner))
    with pytest.raises(NameNotFound):
        run(env, ms.resolver.lookup(owner, RRType.UNSPEC))
    counters = env.stats.counter
    hits = counters(f"bind.{ms.resolver.name}.cache_hits").value
    negatives = counters(f"bind.{ms.resolver.name}.negative_hits").value
    start = env.now

    def attempt():
        try:
            yield from ms.find_nsm_bundle("BIND-cs", "HRPCBinding")
        except (ContextNotFound, NsmNotFound) as err:
            return err, env.now

    err, raised_at = run(env, attempt())
    expected = [
        ContextNotFound("BIND-cs"),
        NsmNotFound(f"HRPCBinding on {BIND_NS}"),
        NsmNotFound(f"HRPCBinding-{BIND_NS}"),
    ][stage]
    assert (type(err), str(err)) == (type(expected), str(expected))
    assert isinstance(err.__cause__, NameNotFound)
    # Raised after the stage's probe charge, before any copy of its own.
    assert raised_at == probe_instant(ms, stage, start) + ms.calibration.cache_probe_ms
    assert counters(f"bind.{ms.resolver.name}.cache_hits").value - hits == stage
    assert counters(f"bind.{ms.resolver.name}.negative_hits").value - negatives == 1


@STAGES
def test_entry_expiring_before_its_probe_starts_the_batch_there(testbed, stage):
    """Mapping ``stage`` expires after the copy of the mapping before it
    and at its own probe: the batch carries exactly the suffix from it."""
    env = testbed.env
    ms, warm = warm_store(testbed)
    start = env.now
    key, entry = stage_entry(ms, stage)
    entry.expires_at = probe_instant(ms, stage, start)
    batches = []
    lookup_batch = ms.resolver.lookup_batch

    def recording(questions):
        batches.append([(q.name, q.chain_from) for q in questions])
        return lookup_batch(questions)

    ms.resolver.lookup_batch = recording
    hits = env.stats.counter(f"bind.{ms.resolver.name}.cache_hits").value
    assert env.now == start
    assert run(env, ms.find_nsm_bundle("BIND-cs", "HRPCBinding")) == warm
    [questions] = batches
    assert questions[0] == (STAGE_OWNERS[stage], -1)
    assert [chain_from for _, chain_from in questions[1:]] == list(range(2 - stage))
    assert env.stats.counter(f"bind.{ms.resolver.name}.cache_hits").value - hits == stage
    assert stage_entry(ms, stage)[1].expires_at > env.now  # re-inserted


@STAGES
def test_refresh_ahead_at_a_stage_renews_that_mapping(testbed, stage):
    env = testbed.env
    ms, warm = warm_store(testbed)
    key, entry = stage_entry(ms, stage)
    # Inside the refresh window: the TTL left is half of the fraction.
    fraction = FAST.fast_path.refresh_ahead_fraction
    entry.inserted_at = entry.expires_at - 2 * (entry.expires_at - env.now) / fraction
    old_expiry = entry.expires_at
    refreshes = env.stats.counter(f"cache.{ms.cache.name}.refreshes").value
    remote = env.stats.counter(f"bind.{ms.resolver.name}.remote_lookups").value
    spawned = []
    record_refresh = ms.cache.record_refresh

    def recording():
        spawned.append(env.now)
        record_refresh()

    ms.cache.record_refresh = recording
    start = env.now
    assert run(env, ms.find_nsm_bundle("BIND-cs", "HRPCBinding")) == warm
    # Spawned once the stage's copy is paid for, not before.
    assert spawned == [probe_instant(ms, stage + 1, start)]
    assert env.stats.counter(f"cache.{ms.cache.name}.refreshes").value - refreshes == 1
    assert ms.resolver._flights.get(key) is not None
    env.run(until=old_expiry)
    assert ms.resolver._flights.get(key) is None
    assert env.stats.counter(f"bind.{ms.resolver.name}.remote_lookups").value - remote == 1
    assert stage_entry(ms, stage)[1].expires_at > old_expiry


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
