"""The shared single-flight / refresh-ahead helper, on its own."""

import pytest

from repro.bind import ResolverCache
from repro.net import Internetwork
from repro.sim import Environment
from repro.singleflight import SingleFlight

COPY_MS = 0.25
WORK_MS = 40.0
KEY = "k"


class Boom(Exception):
    pass


@pytest.fixture
def world():
    env = Environment(seed=3)
    host = Internetwork(env).add_host("h")
    cache = ResolverCache(env, name="sf")
    flights = SingleFlight(
        host, "bind", "sf", copy_cost=lambda _result: COPY_MS, cache=cache
    )
    return env, cache, flights


def make_work(env, calls, fail=False):
    """A work factory: takes WORK_MS, then returns a list or raises Boom."""

    def work():
        calls.append(env.now)
        yield env.timeout(WORK_MS)
        if fail:
            raise Boom("work failed")
        return ["answer"]

    return work


def join(flights, key, work, outcomes):
    """What both callers do on a miss: follow the flight, or lead one."""
    try:
        flight = flights.get(key)
        if flight is not None:
            result = yield from flights.follow(flight)
        else:
            result = yield from flights.lead(key, work())
        outcomes.append(result)
    except Boom as err:
        outcomes.append(err)


def test_concurrent_joiners_run_the_work_once(world):
    env, cache, flights = world
    calls, outcomes = [], []
    work = make_work(env, calls)
    for _ in range(6):
        env.process(join(flights, KEY, work, outcomes))
    env.run()
    assert calls == [0.0]
    assert outcomes == [["answer"]] * 6
    assert cache.coalesced == 5
    # Followers land after the leader, each having paid for its copy.
    assert env.now == pytest.approx(WORK_MS + 5 * COPY_MS)
    assert flights.get(KEY) is None


def test_leader_failure_reaches_each_follower_once(world):
    env, cache, flights = world
    calls, outcomes = [], []
    work = make_work(env, calls, fail=True)
    for _ in range(4):
        env.process(join(flights, KEY, work, outcomes))
    env.run()
    assert calls == [0.0]
    assert len(outcomes) == 4
    assert all(isinstance(o, Boom) for o in outcomes)
    assert len({id(o) for o in outcomes}) == 1  # one error, shared
    assert flights.get(KEY) is None


def test_leader_failure_with_no_followers_never_reaches_the_kernel(world):
    env, cache, flights = world
    outcomes = []
    env.process(join(flights, KEY, make_work(env, [], fail=True), outcomes))
    env.run()  # an unhandled failed event would raise out of here
    assert len(outcomes) == 1 and isinstance(outcomes[0], Boom)
    assert flights.get(KEY) is None


def hit_near_expiry(env, cache, flights, work):
    """Insert an entry, age it into the refresh window, and 'hit' it."""
    cache.insert(KEY, ["old"], 1, 1_000.0)
    env.run(until=900.0)
    entry, _cost = cache.probe(KEY)
    assert cache.needs_refresh(entry, 0.3)
    flights.refresh_ahead(KEY, entry, work, owner=KEY)
    return entry


def test_refresh_ahead_renews_once_and_clears_the_flight(world):
    env, cache, flights = world
    calls = []
    work = make_work(env, calls)
    entry = hit_near_expiry(env, cache, flights, work)
    assert flights.get(KEY) is not None  # registered synchronously
    flights.refresh_ahead(KEY, entry, work, owner=KEY)  # a second hit
    env.run()
    assert len(calls) == 1
    # Deferred by a jittered slice of at most half the remaining TTL.
    assert 900.0 <= calls[0] <= 950.0
    assert cache.refreshes == 1
    assert flights.get(KEY) is None


def test_failed_renewal_is_silent_for_the_hit_but_raised_to_a_joined_miss(world):
    env, cache, flights = world
    calls, outcomes = [], []
    hit_near_expiry(env, cache, flights, make_work(env, calls, fail=True))
    # A miss arriving while the renewal is pending joins its flight.
    env.process(join(flights, KEY, make_work(env, calls), outcomes))
    env.run()  # the renewal's failure must not surface here
    assert len(calls) == 1  # the joiner did not fetch for itself
    assert len(outcomes) == 1 and isinstance(outcomes[0], Boom)
    assert env.stats.counter("bind.sf.refresh_failures").value == 1
    assert flights.get(KEY) is None


def test_failed_renewal_with_nobody_joined_is_silent(world):
    env, cache, flights = world
    hit_near_expiry(env, cache, flights, make_work(env, [], fail=True))
    env.run()
    assert env.stats.counter("bind.sf.refresh_failures").value == 1
    assert flights.get(KEY) is None
