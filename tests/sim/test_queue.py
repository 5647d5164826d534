"""Edges of the kernel's direct drain over the one event heap.

``run()`` pops the heap and runs callbacks inline, so what needs pinning
is where it stops and what it leaves behind: the clock after
``run(until=<float>)`` and ``run(until=<event>)``, entries scheduled
mid-drain that belong before ones already queued, an unhandled failure,
and a deep queue of timers nobody waits on.  The queue's own ordering
contract is checked in ``test_wheel.py``; the second half of this file
holds the lanes that standing timers wait in to it: order, accounting,
and what a stopped run leaves armed.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Environment, Interrupt
from repro.sim.kernel import STANDING_MS

INF = float("inf")


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


def test_run_until_nan_is_rejected():
    # NaN is not "in the past", so it used to get through: the drain
    # stopped at once and the clock was parked on NaN.
    env = Environment()
    timer = env.timeout(1.0)
    with pytest.raises(ValueError):
        env.run(until=float("nan"))
    assert env.now == 0.0 and not timer.processed
    env.run()
    assert env.now == 1.0


# ----------------------------------------------------------------------
# Standing timers: FIFO lanes in front of the heap
# ----------------------------------------------------------------------
def _laned(env):
    return sum(len(lane.waiting or ()) for lane in env._lanes.values())


_delays = st.one_of(
    # repeated constants: 0, two standing delays, one just under the line
    st.sampled_from([0.0, STANDING_MS, 2 * STANDING_MS, STANDING_MS - 0.5]),
    st.floats(min_value=0.001, max_value=STANDING_MS / 2),  # small uniques
    st.floats(min_value=STANDING_MS, max_value=50 * STANDING_MS),  # long uniques
)
# (delay, what its callback arms when it fires), three levels deep: the
# inner ones are armed mid-run, several at one instant.
_schedules = st.recursive(
    st.lists(st.tuples(_delays, st.just([])), max_size=8),
    lambda inner: st.lists(st.tuples(_delays, inner), max_size=8),
    max_leaves=25,
)


def _play(schedule, standing_ms):
    """Arm ``schedule`` and step it dry: (armed, fired) as (time, eid)."""
    env = Environment()
    env._standing_ms = standing_ms
    armed, fired = [], []

    def arm(items):
        for delay, then in items:
            armed.append((env.now + delay, env._eid))
            env.call_later(delay, fire, (armed[-1], then))

    def fire(timer):
        key, then = timer.value
        fired.append(key)
        arm(then)

    arm(schedule)
    while env.peek() < INF:
        env.step()
        assert env.now == fired[-1][0]
        counters = env.kernel_counters()
        standing = (
            counters["sim.kernel.events_scheduled"]
            - counters["sim.kernel.events_processed"]
        )
        assert standing == len(armed) - len(fired)
        assert standing == len(env._queue.heap) + _laned(env)
        assert len(env._queue.heap) >= len(env._lanes)  # every head is in it
    assert not env._lanes and not env._queue.heap
    return armed, fired


@given(_schedules)
@settings(max_examples=60, deadline=None)
def test_lanes_never_change_the_order_the_heap_decides(schedule):
    armed, fired = _play(schedule, STANDING_MS)
    assert fired == sorted(armed)
    assert (armed, fired) == _play(schedule, INF)  # lanes off


def test_run_until_leaves_laned_timers_armed_and_resumable():
    env = Environment()
    fired = []

    def arm(index):
        env.call_later(STANDING_MS, lambda _t: fired.append((index, env.now)))

    for index in range(6):
        env.call_later(float(index), lambda _t, index=index: arm(index))
    env.run(until=STANDING_MS + 1.5)
    assert env.now == STANDING_MS + 1.5
    assert fired == [(0, STANDING_MS), (1, STANDING_MS + 1.0)]
    # one head in the heap, three behind it
    assert len(env._queue.heap) == 1 and _laned(env) == 3
    assert env.peek() == STANDING_MS + 2.0
    # run(until=<event>) on a timer that joins the same lane, at its tail
    last = env.timeout(STANDING_MS, value="last")
    probe = env.timeout(3.0)
    assert env.run(until=probe) is None
    assert [index for index, _ in fired] == [0, 1, 2, 3, 4]
    assert _laned(env) == 1 and not last.processed
    assert env.run(until=last) == "last"
    assert env.now == 2 * STANDING_MS + 1.5
    assert [index for index, _ in fired] == [0, 1, 2, 3, 4, 5]
    assert not env._lanes and env.peek() == INF


def test_an_emptied_lane_is_deleted():
    env = Environment()
    for index in range(100):
        env.timeout(STANDING_MS + index)  # a hundred lanes of one
    env.timeout(5 * STANDING_MS)
    env.timeout(5 * STANDING_MS)
    assert len(env._lanes) == 101 == len(env._queue.heap)
    env.run(until=2 * STANDING_MS)
    assert list(env._lanes) == [5 * STANDING_MS]
    env.run()
    assert env._lanes == {} and env.now == 5 * STANDING_MS
    # ... and the delay gets a fresh one when it is armed again
    env.timeout(5 * STANDING_MS)
    assert len(env._lanes) == 1 == len(env._queue.heap)


def test_waiting_on_and_being_interrupted_off_a_timer_still_in_its_lane():
    env = Environment()
    head = env.timeout(STANDING_MS)
    log = []

    def sleeper(name):
        try:
            value = yield env.timeout(STANDING_MS, value=name)
        except Interrupt as interrupt:
            value = f"interrupted: {interrupt.cause}"
        log.append((name, env.now, value))

    woken = env.process(sleeper("woken"))
    punched = env.process(sleeper("punched"))

    def interrupter():
        yield env.timeout(10.0)
        punched.interrupt("enough")

    env.process(interrupter())
    env.run(until=5.0)
    # Both sleepers are parked on timers behind the head, outside the
    # heap, which holds the head and the interrupter's timeout.
    assert len(env._queue.heap) == 2 and _laned(env) == 2
    tail = env.timeout(STANDING_MS, value="tail")
    assert env.run(until=tail) == "tail"
    assert log == [
        ("punched", 10.0, "interrupted: enough"),
        ("woken", STANDING_MS, "woken"),
    ]
    assert head.processed and woken.processed and punched.processed
    assert env.now == STANDING_MS + 5.0 and not env._lanes


def test_a_head_whose_callback_raises_has_already_promoted_its_successor():
    env = Environment()

    def boom(_timer):
        raise KeyError("raised out of run()")

    env.timeout(STANDING_MS)
    env.call_later(STANDING_MS, boom)  # promoted once, then the head
    behind = env.timeout(STANDING_MS)
    with pytest.raises(KeyError):
        env.run()
    assert env.peek() == STANDING_MS and not behind.processed
    env.run()
    assert behind.processed and not env._lanes


def test_promotion_happens_inside_the_heads_processing_bracket():
    env = Environment()
    trail = []
    timers = [env.timeout(STANDING_MS) for _ in range(3)]
    for timer in timers:
        timer.callbacks.append(lambda _t: trail.append(len(env._queue.heap)))
    env.run()
    # The lane's advance is the head's callback 0, so its successor is
    # in the heap before any other callback runs; the last one empties
    # the lane.
    assert trail == [1, 1, 0]
    assert all(timer.processed for timer in timers) and not env._lanes
