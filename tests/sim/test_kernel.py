"""Kernel clock/queue behaviour."""

import ast
import pathlib

import pytest

from repro.sim import Environment, SimulationError, run_process
from repro.sim.kernel import RUN_HORIZON_MS

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(5)
        return env.now

    p = env.process(proc())
    assert env.run(until=p) == 5.0
    assert env.now == 5.0


def test_run_until_time_stops_at_horizon():
    env = Environment()
    seen = []

    def proc():
        for _ in range(10):
            yield env.timeout(3)
            seen.append(env.now)

    env.process(proc())
    env.run(until=10)
    assert env.now == 10.0
    assert seen == [3.0, 6.0, 9.0]


def test_run_until_past_raises():
    env = Environment()
    env.run(until=10)
    with pytest.raises(SimulationError):
        env.run(until=5)


def test_run_drains_queue_when_no_until():
    env = Environment()

    def proc():
        yield env.timeout(7)

    env.process(proc())
    env.run()
    assert env.now == 7.0
    assert env.peek() == float("inf")


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def waiter(delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(waiter(5, "b"))
    env.process(waiter(1, "a"))
    env.process(waiter(9, "c"))
    env.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fire_fifo():
    env = Environment()
    order = []

    def waiter(tag):
        yield env.timeout(4)
        order.append(tag)

    for tag in range(6):
        env.process(waiter(tag))
    env.run()
    assert order == list(range(6))


def test_step_on_empty_queue_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_run_until_event_deadlock_detected():
    env = Environment()
    never = env.event()

    def proc():
        yield never

    env.process(proc())
    with pytest.raises(SimulationError):
        env.run(until=never)


def test_a_bounded_run_returns_what_its_process_returns():
    env = Environment()
    env.run(until=RUN_HORIZON_MS)  # the horizon counts from the run's start

    def proc():
        yield env.timeout(RUN_HORIZON_MS)
        return "done"

    assert run_process(env, proc()) == "done"
    assert env.now == 2 * RUN_HORIZON_MS

    def fails():
        yield env.timeout(1)
        raise KeyError("the process's own error")

    with pytest.raises(KeyError):
        run_process(env, fails())


def test_a_poll_that_never_succeeds_stops_at_the_horizon():
    env = Environment()
    polls = []

    def poller():
        while True:  # waits for a value that never comes
            polls.append(env.now)
            yield env.timeout(250.0)

    with pytest.raises(SimulationError) as raised:
        run_process(env, poller(), "update_path.poller")
    message = str(raised.value)
    assert "'update_path.poller' still pending" in message
    assert f"at {env.now!r} ms" in message
    assert f"horizon is {RUN_HORIZON_MS!r} ms" in message
    assert env.now == polls[-1] <= RUN_HORIZON_MS < env.peek()


def test_a_bounded_run_that_drains_is_a_deadlock():
    env = Environment()

    def proc():
        yield env.event()

    with pytest.raises(SimulationError, match="deadlock"):
        run_process(env, proc())


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_nested_process_composition():
    env = Environment()

    def inner():
        yield env.timeout(3)
        return "inner-done"

    def outer():
        result = yield env.process(inner())
        yield env.timeout(2)
        return result + "/outer-done"

    p = env.process(outer())
    assert env.run(until=p) == "inner-done/outer-done"
    assert env.now == 5.0


def test_failed_process_raises_at_run():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise ValueError("boom")

    env.process(bad())
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_run_until_failed_event_raises_and_does_not_double_report():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise KeyError("gone")

    p = env.process(bad())
    with pytest.raises(KeyError):
        env.run(until=p)


def test_two_environments_are_independent():
    env1, env2 = Environment(), Environment()

    def proc(env):
        yield env.timeout(4)

    env1.process(proc(env1))
    env1.run()
    assert env1.now == 4.0
    assert env2.now == 0.0


@pytest.mark.parametrize("not_a_generator", [lambda: None, [1, 2], 3, iter(())])
def test_process_of_a_non_generator_raises_the_same_type_error(not_a_generator):
    env = Environment()
    with pytest.raises(
        TypeError,
        match=f"^Process requires a generator, got {type(not_a_generator).__name__}$",
    ):
        env.process(not_a_generator)  # type: ignore[arg-type]
    assert env.kernel_counters()["sim.kernel.events_scheduled"] == 0


class _GeneratorLike:
    """Has ``send`` and ``throw`` but is no ``types.GeneratorType``."""

    def __init__(self, generator, name=None):
        self._generator = generator
        if name is not None:
            self.__name__ = name

    def send(self, value):
        return self._generator.send(value)

    def throw(self, exception):
        return self._generator.throw(exception)


@pytest.mark.parametrize(
    "name, given, expected",
    [(None, None, "process"), ("own", None, "own"), ("own", "given", "given")],
)
def test_a_generator_like_still_starts(name, given, expected):
    env = Environment()

    def body():
        yield env.timeout(2.0)
        return env.now

    process = env.process(_GeneratorLike(body(), name), given)
    assert process.name == expected
    assert env.run(until=process) == 2.0


def _now_targets(node):
    """The ``<x>.now`` attributes an assignment target writes."""
    if isinstance(node, ast.Attribute):
        return [node] if node.attr == "now" else []
    if isinstance(node, (ast.Tuple, ast.List)):
        return [a for element in node.elts for a in _now_targets(element)]
    if isinstance(node, ast.Starred):
        return _now_targets(node.value)
    return []


def test_only_the_kernel_writes_the_clock():
    """``Environment.now`` is a plain field, so nothing stops a write;
    under ``src/repro`` only ``repro/sim/kernel.py`` makes one."""
    writers = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.For, ast.comprehension)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for attribute in _now_targets(target):
                    where = path.relative_to(SRC.parent).as_posix()
                    writers.setdefault(where, []).append(attribute.lineno)
    assert set(writers) == {"repro/sim/kernel.py"}, writers
