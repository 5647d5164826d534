"""The event queue's ordering contract, checked against ``sorted()``.

Events are processed in ``(time, eid)`` order.  The reference here is
the obvious one — keep every pushed ``(time, eid)`` in a list and take
its minimum — which is what the heap must agree with pop for pop and
peek for peek, plus the same contract seen through the kernel (delay-0
storms, timers far in the future).

The file keeps its name because the test floor pins these test ids by
path; the drain's edge cases are in ``test_queue.py``.
"""

import random

import pytest

from repro.sim import Environment
from repro.sim.queue import HeapQueue


class _Stub:
    """Entry payload; the queue never orders or touches it."""

    __slots__ = ()


STUB = _Stub()


def _drain_order(queue):
    order = []
    while True:
        entry = queue.pop()
        if entry is None:
            return order
        order.append(entry[:2])


# ----------------------------------------------------------------------
# Property-style differential tests, raw queue level
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(10))
def test_random_schedule_pops_identically(seed):
    rng = random.Random(seed)
    queue, pending = HeapQueue(), []
    eid = 0
    now = 0.0
    for _ in range(400):
        # A bursty mix: immediate, sub-ms, sub-second, seconds, minutes.
        delay = rng.choice(
            [0.0, rng.random(), rng.random() * 250, rng.random() * 3_000,
             rng.random() * 900_000]
        )
        queue.heappush((now + delay, eid, STUB))
        pending.append((now + delay, eid))
        eid += 1
        if rng.random() < 0.3:
            expected = min(pending)
            pending.remove(expected)
            assert queue.pop()[:2] == expected
            now = expected[0]
    assert len(queue) == len(pending)
    assert _drain_order(queue) == sorted(pending)
    assert queue.pop() is None


@pytest.mark.parametrize("seed", range(5))
def test_random_schedule_peeks_identically(seed):
    rng = random.Random(1000 + seed)
    queue, pending = HeapQueue(), []
    assert queue.peek() == float("inf")
    now = 0.0
    for eid in range(300):
        delay = rng.random() * rng.choice([1.0, 100.0, 500_000.0])
        queue.heappush((now + delay, eid, STUB))
        pending.append((now + delay, eid))
        assert queue.peek() == min(pending)[0]
        if rng.random() < 0.4:
            expected = min(pending)
            pending.remove(expected)
            assert queue.pop()[:2] == expected
            now = expected[0]
            assert queue.peek() == min(pending, default=(float("inf"),))[0]


def test_same_time_entries_pop_fifo():
    queue = HeapQueue()
    for eid in range(20):
        queue.heappush((7.5, eid, STUB))
    assert _drain_order(queue) == [(7.5, eid) for eid in range(20)]


# ----------------------------------------------------------------------
# The same contract through the kernel
# ----------------------------------------------------------------------
def test_zero_delay_storm_matches_heap():
    env = Environment(seed=11)
    order = []

    def proc(tag):
        for round_ in range(50):
            yield env.timeout(0.0)
            order.append((round_, tag))

    for tag in range(20):
        env.process(proc(tag))
    env.run()
    assert env.now == 0.0
    # Nothing but ties: FIFO makes the processes take strict turns.
    assert order == sorted(order)
    assert len(order) == 20 * 50


def test_far_future_overflow_matches_heap():
    # Delays out to ~80 simulated minutes, ten interleaved processes.
    env = Environment(seed=11)
    fired = []

    def proc(stream, rng):
        for _ in range(10):
            yield env.timeout(rng.random() * 5_000_000)
            fired.append((env.now, stream))

    for stream in range(10):
        env.process(proc(stream, env.rng.stream(f"far.{stream}")))
    env.run()
    assert len(fired) == 100
    assert [time for time, _ in fired] == sorted(time for time, _ in fired)
    assert env.now == fired[-1][0]


def test_kernel_counters_stay_out_of_stats():
    env = Environment()

    def proc():
        yield env.timeout(0.0)
        yield env.timeout(300_000.0)

    env.process(proc())
    env.run()
    counters = env.kernel_counters()
    assert counters["sim.kernel.events_scheduled"] > 0
    assert (
        counters["sim.kernel.events_processed"]
        == counters["sim.kernel.events_scheduled"]
    )
    # Never in the registry, so a scenario's digest does not depend on
    # how many events its run took.
    assert not any(name.startswith("sim.kernel.") for name in env.stats.counters())
