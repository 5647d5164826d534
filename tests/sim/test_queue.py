"""Edges of the kernel's direct drain over the one event heap.

``run()`` pops the heap and runs callbacks inline, so what needs pinning
is where it stops and what it leaves behind: the clock after
``run(until=<float>)`` and ``run(until=<event>)``, entries scheduled
mid-drain that belong before ones already queued, an unhandled failure,
and a deep queue of timers nobody waits on.  The queue's own ordering
contract is checked in ``test_wheel.py``.
"""

import pytest

from repro.sim import Environment


def test_run_until_float_parks_clock():
    env = Environment()
    seen = []

    def proc():
        for _ in range(40):
            yield env.timeout(97.0)
            seen.append(env.now)

    env.process(proc())
    env.run(until=1000.5)
    assert env.now == 1000.5
    assert seen == [97.0 * k for k in range(1, 11)]
    assert env.peek() == 97.0 * 11
    # Scheduling resumes from the parked clock, not from the last event.
    env.process(proc())
    env.run(until=2000.25)
    assert env.now == 2000.25
    assert seen == sorted(seen)
    assert 1000.5 + 97.0 in seen


def test_mid_drain_scheduling_of_earlier_events_runs_in_order():
    # A callback schedules work due before entries that were already
    # queued when the drain started.
    env = Environment(seed=11)
    times = []

    def spawner():
        yield env.timeout(10.0)
        env.process(child())
        yield env.timeout(100.0)
        times.append(("spawner", env.now))

    def child():
        yield env.timeout(0.5)
        times.append(("child", env.now))

    def straggler():
        yield env.timeout(10.2)
        times.append(("straggler", env.now))

    env.process(spawner())
    env.process(straggler())
    env.run()
    assert times == [("straggler", 10.2), ("child", 10.5), ("spawner", 110.0)]


def test_run_until_event_leaves_later_entries_queued():
    env = Environment()
    fired = []

    def ticker():
        while True:
            yield env.timeout(10.0)
            fired.append(env.now)

    env.process(ticker())
    target = env.timeout(35.0, value="done")
    late = env.timeout(500.0)
    assert env.run(until=target) == "done"
    assert env.now == 35.0
    assert fired == [10.0, 20.0, 30.0]
    assert not late.processed
    assert env.peek() == 40.0
    # An already-processed target returns at once and moves nothing.
    assert env.run(until=target) == "done"
    assert env.now == 35.0 and fired == [10.0, 20.0, 30.0]


def test_undefused_failed_event_raises_at_its_time():
    env = Environment()

    def failer():
        yield env.timeout(12.5)
        env.event().fail(KeyError("nobody waits on this"))

    env.process(failer())
    later = env.timeout(50.0)
    with pytest.raises(KeyError):
        env.run()
    assert env.now == 12.5
    assert not later.processed
    # The failure was surfaced once; the rest of the queue still runs.
    env.run()
    assert env.now == 50.0 and later.processed


def test_standing_timers_interleaved_with_rescheduling_process():
    env = Environment()
    standing = 20_000
    for index in range(standing):
        env.timeout(1.0 + (index * 7919 % standing) * 0.01)  # no waiter
    ticks = []

    def ticker():
        # Every tick lands between standing timers already in the heap.
        while env.now < 150.0:
            yield env.timeout(0.37)
            ticks.append(env.now)
            env.timeout(5.0)  # armed, never awaited

    env.process(ticker())
    env.run()
    counters = env.kernel_counters()
    # start event + one timeout and one lease per tick; nobody waits on
    # the ticker, so its exit is not an event
    assert counters["sim.kernel.events_scheduled"] == standing + 1 + 2 * len(ticks)
    assert (
        counters["sim.kernel.events_processed"]
        == counters["sim.kernel.events_scheduled"]
    )
    assert ticks == sorted(ticks) and len(ticks) == 406
    # The clock ends on the last standing timer, past the last lease.
    assert env.now == 1.0 + (standing - 1) * 0.01 > ticks[-1] + 5.0
    assert env.peek() == float("inf")
