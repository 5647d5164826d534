"""What the kernel's primitives cost the host, pinned.

Every simulated cost in this repository is a heap entry and a wake-up,
so their fixed Python overhead is paid tens of times per operation.
Counted, not timed — ``sys.setprofile`` ``call`` events (Python frames
entered or resumed) per primitive, with an upper bound that leaves
headroom between interpreter versions — so the test says the same thing
on any machine.  C calls are printed, not asserted (they differ between
3.9 and 3.12); heap entries are exact.
"""

import collections
import sys

import pytest

from repro.sim import CPU, Environment
from repro.sim.events import Timeout
from repro.sim.kernel import STANDING_MS
from repro.sim.process import Process

ROUNDS = 200


def _profiled(env, body):
    """(python calls, C calls, heap entries) per round of ``body()``.

    ``body`` is a generator function run as one process; it yields
    ``ROUNDS`` times between the two marks, so the driver's own frame
    resumptions are part of every figure (one per wake-up).
    """
    events = collections.Counter()

    def profile(_frame, event, _arg):
        events[event] += 1

    def driver():
        yield from body(1)  # warm: first-use paths, attribute caches
        outer = sys.getprofile()
        before = env.kernel_counters()["sim.kernel.events_scheduled"]
        sys.setprofile(profile)
        try:
            yield from body(ROUNDS)
        finally:
            sys.setprofile(outer)
        return env.kernel_counters()["sim.kernel.events_scheduled"] - before

    entries = env.run(until=env.process(driver()))
    return events["call"] / ROUNDS, events["c_call"] / ROUNDS, entries / ROUNDS


def _timeout_round_trip():
    env = Environment()

    def body(rounds):
        for _ in range(rounds):
            yield env.timeout(1.0)

    return _profiled(env, body)


def _call_later_round():
    """Each round: one timed callback (a C-level ``list.append``, so the
    figure is the kernel's alone) on the timeout the driver waits on."""
    env = Environment()
    fired = []

    def body(rounds):
        for _ in range(rounds):
            yield env.call_later(1.0, fired.append)

    return _profiled(env, body)


def _uncontended_charge():
    env = Environment()
    cpu = CPU(env)

    def body(rounds):
        for _ in range(rounds):
            yield cpu.compute(1.0)

    return _profiled(env, body)


def _contended_charge():
    """Each round: a rival takes the CPU first, the measured charge
    queues behind it (the rival's own cost is in the figure too: one
    process, one uncontended charge)."""
    env = Environment()
    cpu = CPU(env)

    def rival():
        yield cpu.compute(1.0)

    def body(rounds):
        for _ in range(rounds):
            env.process(rival(), inline=True)
            yield cpu.compute(1.0)

    return _profiled(env, body)


def _standing_arm_beside_a_round_trip():
    """Each round arms one no-waiter standing timer behind its lane's
    head (the warm round opens the lane), then the timeout round trip."""
    env = Environment()

    def body(rounds):
        for _ in range(rounds):
            env.timeout(STANDING_MS)
            yield env.timeout(1.0)

    return _profiled(env, body)


def _process_start_to_unwaited_exit():
    env = Environment()

    def child():
        yield env.timeout(1.0)

    def body(rounds):
        for _ in range(rounds):
            env.process(child())
            yield env.timeout(2.0)

    return _profiled(env, body)


@pytest.mark.parametrize(
    "measure, max_python_calls, heap_entries",
    [
        # 4.0 — env.timeout, building the Timeout in place | _resume and
        # the driver's two frames (5.0 with a Timeout.__init__ frame, 8.0
        # before that: push, _step, _add_callback)
        pytest.param(_timeout_round_trip, 4.5, 1, id="timeout-round-trip"),
        # 5.0 — call_later, env.timeout | _resume, two frames
        pytest.param(_call_later_round, 5.5, 1, id="call-later"),
        # 5.0 — use (bound as compute at speed 1.0, building its Charge
        # in place) | _free, _resume, two frames (6.0 with a
        # Charge.__init__ frame, 7.0 while compute was a frame of its
        # own, 11.0 while use()'s frame was entered and resumed)
        pytest.param(_uncontended_charge, 5.5, 1, id="uncontended-charge"),
        # 12.0 with the rival's inline process (env.process alone, 13.0
        # with a Process.__init__ frame) and charge: _free hands the
        # queued charge the unit and its hold (17.0 through _grant, _hold
        # and two Charge.__init__ frames, 19.0 with compute's two frames,
        # 42.0 and 3 entries with a grant event and a wake-up to start
        # the hold)
        pytest.param(_contended_charge, 12.5, 2, id="contended-charge"),
        # 10.0 with the driver's own timeout: env.process builds the
        # process and its start event in place (14.0 through
        # Process.__init__, Event.__init__ and two Timeout.__init__
        # frames, 26.0 before that)
        pytest.param(
            _process_start_to_unwaited_exit, 10.5, 3, id="process-start-to-exit"
        ),
        # 6.0 — the round trip's 4.0 plus env.timeout, _arm_standing:
        # arming is 2 calls and no heap push (8.0 with two Timeout.__init__
        # frames), and the threshold compare is all an ordinary Timeout
        # gained
        pytest.param(_standing_arm_beside_a_round_trip, 6.5, 2, id="standing-arm"),
    ],
)
def test_kernel_primitive_budget(measure, max_python_calls, heap_entries):
    python_calls, c_calls, entries = measure()
    print(
        f"{measure.__name__}: {python_calls:.1f} python calls, "
        f"{c_calls:.1f} C calls, {entries:g} heap entries"
    )
    assert entries == heap_entries
    assert python_calls <= max_python_calls


def test_a_full_speed_charge_is_use_and_other_speeds_still_scale():
    """``CPU.compute`` is ``use`` itself at speed 1.0 (``x / 1.0 == x``
    exactly), so every charge ends where the scaling method says."""
    costs = [0.1, 1 / 3, 2.7, 0.0, 1e-9, 12.5]

    def ends(speed, charge):
        env = Environment()
        cpu = CPU(env, speed_factor=speed)
        times = []

        def body():
            for cost in costs:
                yield charge(cpu, cost)
                times.append(env.now)

        env.run(until=env.process(body()))
        return times

    def bound(cpu, cost):
        return cpu.compute(cost)

    def scaling(cpu, cost):
        return CPU.compute(cpu, cost)

    def unscaled(cpu, cost):
        return cpu.use(cost)

    full = CPU(Environment())
    assert full.compute == full.use
    assert ends(1.0, bound) == ends(1.0, scaling) == ends(1.0, unscaled)
    for speed in (0.5, 2.0):
        assert CPU(Environment(), speed_factor=speed).compute.__func__ is CPU.compute
        assert ends(speed, bound) == ends(speed, scaling) != ends(speed, unscaled)
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            full.compute(bad)


def test_standing_timers_of_one_delay_keep_one_heap_entry():
    env = Environment()
    for _ in range(20_000):
        env.timeout(STANDING_MS)
    assert len(env._queue.heap) == 1
    counters = env.kernel_counters()
    assert counters["sim.kernel.events_scheduled"] == 20_000
    assert counters["sim.kernel.events_processed"] == 0
    env.run()
    assert env.kernel_counters()["sim.kernel.events_processed"] == 20_000


@pytest.mark.parametrize("bad", [-1.0, -1e-9, float("nan")])
def test_timeout_and_call_later_reject_a_negative_or_nan_delay(bad):
    env = Environment()
    with pytest.raises(ValueError, match="negative or NaN delay"):
        env.timeout(bad)
    with pytest.raises(ValueError, match="negative or NaN delay"):
        env.call_later(bad, lambda _t: None)
    assert env.kernel_counters()["sim.kernel.events_scheduled"] == 0


def test_an_int_delay_is_stored_as_a_float():
    env = Environment()
    for timeout in (env.timeout(3), env.call_later(3, lambda _t: None)):
        assert type(timeout.delay) is float and timeout.delay == 3.0
    standing = env.timeout(int(STANDING_MS))
    assert type(standing.delay) is float
    assert list(env._lanes) == [STANDING_MS]


def test_a_timeout_reads_triggered_and_rejects_a_second_trigger():
    env = Environment()
    timeout = env.timeout(1.0, value="v")
    assert timeout.triggered and not timeout.processed
    for trigger in (timeout.succeed, timeout.succeed_now):
        with pytest.raises(RuntimeError, match="already triggered"):
            trigger()
    with pytest.raises(RuntimeError, match="already triggered"):
        timeout.fail(ValueError())
    env.run()
    assert timeout.value == "v"


def test_process_of_a_non_generator_is_a_type_error():
    env = Environment()
    with pytest.raises(TypeError, match="Process requires a generator, got function"):
        env.process(lambda: None)  # type: ignore[arg-type]
    assert env.kernel_counters()["sim.kernel.events_scheduled"] == 0


@pytest.mark.parametrize(
    "build, method",
    [
        (lambda env: Timeout(env, 1.0), "env.timeout"),
        (lambda env: Timeout(), "env.timeout"),
        (lambda env: Process(env, iter(())), "env.process"),
        (lambda env: Process(env, iter(()), "name", True), "env.process"),
    ],
)
def test_direct_construction_names_the_env_method(build, method):
    """Only the ``env`` methods build these events, so none reaches the
    heap half-built."""
    env = Environment()
    with pytest.raises(TypeError, match=method.replace(".", r"\.")):
        build(env)
    assert env.kernel_counters()["sim.kernel.events_scheduled"] == 0
