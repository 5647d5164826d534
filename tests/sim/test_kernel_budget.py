"""What the kernel's primitives cost the host.

Every simulated cost in this repository is a heap entry and a wake-up,
so their fixed Python overhead is paid tens of times per operation.
Each probe below is a ``kernel/*`` row of ``COSTS``
(``tests/test_costs.py``), which pins its Python calls and heap entries
per round exactly; its docstring says why the count is what it is.
Each round is one frame of its own (a lambda or a function returning
the event the driver waits on), resumed never: the driver's frame is
the one resumption per wake-up.
"""

import pytest

from repro.sim import CPU, Environment
from repro.sim.events import Timeout
from repro.sim.kernel import STANDING_MS
from repro.sim.process import Process
from tests.cost import PROBES, probe, window

ROUNDS = 200


@probe("kernel/timeout-round-trip")
def _timeout_round_trip():
    """The round, ``env.timeout`` (building the ``Timeout`` in place) |
    ``_resume``, the driver."""
    env = Environment()
    return window(env, lambda: env.timeout(1.0), ROUNDS)


@probe("kernel/call-later")
def _call_later_round():
    """Each round: one timed callback (a C-level ``list.append``, so the
    figure is the kernel's alone) on the timeout the driver waits on.
    The round, ``call_later``, ``env.timeout`` | ``_resume``, the
    driver."""
    env = Environment()
    fired = []
    return window(env, lambda: env.call_later(1.0, fired.append), ROUNDS)


@probe("kernel/uncontended-charge")
def _uncontended_charge():
    """A timeout round trip's count: the round, ``use`` (bound as
    ``compute`` at speed 1.0, building its ``Charge`` in place) |
    ``_resume``, the driver.  Nothing runs when a hold nobody waits
    behind ends."""
    env = Environment()
    cpu = CPU(env)
    return window(env, lambda: cpu.compute(1.0), ROUNDS)


@probe("kernel/contended-charge")
def _contended_charge():
    """Each round: a rival takes the CPU first, the measured charge
    queues behind it (the rival's own cost is in the figure too: one
    process, one uncontended charge).  The rival's inline process
    (``env.process`` builds it in place) and charge, then the measured
    one: it puts ``_free`` on the rival's hold, which hands it the unit
    and its hold with no grant event, and its own hold ends with nobody
    to hand on to."""
    env = Environment()
    cpu = CPU(env)

    def rival():
        yield cpu.compute(1.0)

    def step():
        env.process(rival(), inline=True)
        return cpu.compute(1.0)

    return window(env, step, ROUNDS)


@probe("kernel/standing-arm")
def _standing_arm_beside_a_round_trip():
    """Each round arms one no-waiter standing timer behind its lane's
    head (the warm rounds open the lane), then the timeout round trip:
    its count plus ``env.timeout``, since arming is the call itself (a
    lane append) and no heap push."""
    env = Environment()

    def step():
        env.timeout(STANDING_MS)
        return env.timeout(1.0)

    return window(env, step, ROUNDS)


@probe("kernel/clock-reads")
def _clock_reads_beside_a_round_trip():
    """Each round reads ``env.now`` twice, as a process body timing its
    own wait does, then the timeout round trip: its count, since the
    clock is a field and a read enters no frame."""
    env = Environment()
    seen = []

    def step():
        seen.append(env.now - env.now)
        return env.timeout(1.0)

    return window(env, step, ROUNDS)


@probe("kernel/open-loop-client")
def _open_loop_client():
    """Each round is one ``mclient_zipf`` op: an arrival starts a client
    that times one lookup with two clock reads, then arms a no-waiter
    standing lease (the lease counts as scheduled from its arming).  The
    round trip, ``env.process``, and the client's two segments
    (``_resume`` and its frame each), its timeout and its lease: a
    ledger op is this less the round's own frame."""
    env = Environment()
    latencies = []

    def client():
        started = env.now
        yield env.timeout(0.5)
        latencies.append(env.now - started)
        env.timeout(2 * STANDING_MS)

    def step():
        env.process(client())
        return env.timeout(1.0)

    return window(env, step, ROUNDS)


@probe("kernel/process-start-to-exit")
def _process_start_to_unwaited_exit():
    """A child that waits once and exits unwaited, beside the driver's
    own timeout: ``env.process`` builds the process and its start event
    in place."""
    env = Environment()

    def child():
        yield env.timeout(1.0)

    def step():
        env.process(child())
        return env.timeout(2.0)

    return window(env, step, ROUNDS)


@pytest.mark.parametrize(
    "row", sorted(name.split("/")[1] for name in PROBES if name.startswith("kernel/"))
)
def test_kernel_primitive_budget(row):
    """Each round starts the one process it is about (the rival, the
    child, the client) or none."""
    starts = row in ("contended-charge", "process-start-to-exit", "open-loop-client")
    assert PROBES[f"kernel/{row}"]().started == [None] * ROUNDS * starts


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
