"""Event lifecycle, conditions, and failure semantics."""

import pytest

from repro.sim import Environment


def test_event_value_before_trigger_raises():
    env = Environment()
    e = env.event()
    assert not e.triggered
    with pytest.raises(RuntimeError):
        e.value
    with pytest.raises(RuntimeError):
        e.ok


def test_event_succeed_carries_value():
    env = Environment()
    e = env.event()
    e.succeed(42)
    env.run()
    assert e.triggered and e.processed and e.ok
    assert e.value == 42


def test_event_double_trigger_rejected():
    env = Environment()
    e = env.event()
    e.succeed(1)
    with pytest.raises(RuntimeError):
        e.succeed(2)
    with pytest.raises(RuntimeError):
        e.fail(ValueError())


def test_fail_requires_exception_instance():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_failed_event_raises_in_waiter():
    env = Environment()
    e = env.event()

    def waiter():
        with pytest.raises(ValueError, match="remote down"):
            yield e
        return "handled"

    p = env.process(waiter())
    e.fail(ValueError("remote down"))
    assert env.run(until=p) == "handled"


def test_unwaited_failed_event_surfaces_at_run():
    env = Environment()
    env.event().fail(RuntimeError("nobody listening"))
    with pytest.raises(RuntimeError, match="nobody listening"):
        env.run()


def test_defused_failure_is_silent():
    env = Environment()
    e = env.event()
    e.fail(RuntimeError("ignored"))
    e.defuse()
    env.run()  # no raise


def test_waiting_on_processed_event_resumes_immediately():
    env = Environment()
    e = env.event()
    e.succeed("early")
    env.run()

    def late_waiter():
        value = yield e
        return value

    p = env.process(late_waiter())
    assert env.run(until=p) == "early"


def test_timeout_carries_value():
    env = Environment()

    def proc():
        value = yield env.timeout(2, value="payload")
        return value

    p = env.process(proc())
    assert env.run(until=p) == "payload"


def test_nan_delay_is_rejected_not_left_to_stall_the_queue():
    # A NaN key orders against nothing: once it reached the top of the
    # heap, run() returned with every later timer unfired and no error.
    env = Environment()
    fired = []
    for delay in (5.0, 1.0, 3.0):
        env.call_later(delay, lambda timer: fired.append(env.now))
    with pytest.raises(ValueError):
        env.timeout(float("nan"))
    with pytest.raises(ValueError):
        env.call_later(float("nan"), fired.append)
    with pytest.raises(ValueError):
        env.timeout(-0.5)
    env.run()
    assert fired == [1.0, 3.0, 5.0]


def test_any_of_triggers_on_first():
    env = Environment()

    def proc():
        fast = env.timeout(1, value="fast")
        slow = env.timeout(10, value="slow")
        result = yield env.any_of([fast, slow])
        return result

    p = env.process(proc())
    result = env.run(until=p)
    assert list(result.values()) == ["fast"]
    assert env.now == 1.0


def test_all_of_waits_for_all():
    env = Environment()

    def proc():
        a = env.timeout(1, value="a")
        b = env.timeout(5, value="b")
        result = yield env.all_of([a, b])
        return sorted(result.values())

    p = env.process(proc())
    assert env.run(until=p) == ["a", "b"]
    assert env.now == 5.0


def test_any_of_failure_propagates():
    env = Environment()

    def failer():
        yield env.timeout(1)
        raise OSError("link dead")

    def proc():
        bad = env.process(failer())
        slow = env.timeout(50)
        with pytest.raises(OSError):
            yield env.any_of([bad, slow])
        return "ok"

    p = env.process(proc())
    assert env.run(until=p) == "ok"


def test_all_of_empty_sequence_triggers_immediately():
    env = Environment()

    def proc():
        result = yield env.all_of([])
        return result

    p = env.process(proc())
    assert env.run(until=p) == {}
    assert env.now == 0.0


def test_any_of_with_already_processed_child():
    env = Environment()
    e = env.event()
    e.succeed("done")
    env.run()

    def proc():
        result = yield env.any_of([e, env.timeout(100)])
        return result

    p = env.process(proc())
    result = env.run(until=p)
    assert "done" in result.values()
    assert env.now == 0.0


# ----------------------------------------------------------------------
# Events that are never heap entries: inline triggers, conditions,
# timed callbacks
# ----------------------------------------------------------------------
def _scheduled(env):
    return env.kernel_counters()["sim.kernel.events_scheduled"]


def test_call_later_is_one_heap_entry_and_no_process():
    env = Environment()
    seen = []
    env.call_later(
        4.0, lambda t: seen.append((env.now, t.value, env.active_process)), value="cargo"
    )
    assert _scheduled(env) == 1
    env.run()
    assert seen == [(4.0, "cargo", None)]
    assert _scheduled(env) == 1
    with pytest.raises(ValueError):
        env.call_later(-1.0, seen.append)


def test_succeed_now_resumes_the_waiter_inside_the_causing_event():
    env = Environment()
    gate = env.event()
    log = []

    def waiter():
        log.append(("woke", (yield gate), env.now))

    env.process(waiter())

    def arrive(trip):
        gate.succeed_now(trip.value)
        log.append("after-trigger")  # the waiter already ran

    env.call_later(2.0, arrive, value="reply")
    env.run()
    assert log == [("woke", "reply", 2.0), "after-trigger"]
    assert gate.processed and gate.value == "reply"
    # waiter start + the timed callback; the gate never entered the heap
    assert _scheduled(env) == 2


def test_inline_trigger_rejects_an_already_triggered_event():
    env = Environment()
    fired = env.event().succeed(1)
    with pytest.raises(RuntimeError, match="already triggered"):
        fired.succeed_now(2)
    with pytest.raises(RuntimeError, match="already triggered"):
        fired.fail_now(ValueError())
    inline = env.event().succeed_now(1)
    with pytest.raises(RuntimeError, match="already triggered"):
        inline.succeed_now(2)
    with pytest.raises(RuntimeError, match="already triggered"):
        inline.succeed(2)
    with pytest.raises(RuntimeError, match="already triggered"):
        env.timeout(1).succeed_now(None)
    with pytest.raises(TypeError):
        waited = env.event()
        waited.callbacks.append(lambda e: None)
        waited.fail_now("not an exception")  # type: ignore[arg-type]


def test_fail_now_throws_into_the_waiter_inline():
    env = Environment()
    gate = env.event()

    def waiter():
        try:
            yield gate
        except OSError as exc:
            return str(exc), env.now

    waiting = env.process(waiter())
    env.call_later(3.0, lambda _t: gate.fail_now(OSError("down")))
    assert env.run(until=waiting) == ("down", 3.0)


def test_fail_now_with_nobody_listening_still_surfaces_at_run():
    env = Environment()
    env.call_later(1.0, lambda _t: env.event().fail_now(OSError("unheard")))
    with pytest.raises(OSError, match="unheard"):
        env.run()


def test_conditions_fire_inside_their_deciding_child():
    env = Environment()
    order = []

    def waiter(label, condition):
        yield condition
        order.append((label, env.now))

    fast, slow = env.timeout(1), env.timeout(5)
    bystander = env.timeout(1)  # queued for t=1 after `fast`
    bystander.callbacks.append(lambda _e: order.append(("bystander", env.now)))
    env.process(waiter("any", env.any_of([fast, slow])))
    env.process(waiter("all", env.all_of([fast, slow])))
    env.run()
    # the AnyOf waiter runs in `fast`'s own callbacks, ahead of the
    # bystander that was queued for the same instant before it fired
    assert order == [("any", 1.0), ("bystander", 1.0), ("all", 5.0)]
    # three timeouts and two process starts: neither condition is an entry
    assert _scheduled(env) == 5


def test_condition_over_already_processed_children_is_processed_on_construction():
    env = Environment()
    done = [env.timeout(1, value="a"), env.timeout(2, value="b")]
    env.run()
    before = _scheduled(env)
    both = env.all_of(done)
    either = env.any_of(done)
    nothing = env.all_of([])
    assert both.processed and both.value == {done[0]: "a", done[1]: "b"}
    assert either.processed and either.value == {done[0]: "a", done[1]: "b"}
    assert nothing.processed and nothing.value == {}
    assert _scheduled(env) == before

    def waiter():
        return (yield both)

    assert env.run(until=env.process(waiter())) == both.value


def test_condition_over_a_processed_failed_child_fails_for_a_late_waiter():
    env = Environment()
    bad = env.event().fail(OSError("gone"))
    bad.defuse()
    env.run()

    def waiter():
        try:
            yield env.any_of([bad, env.timeout(10)])
        except OSError:
            return env.now

    assert env.run(until=env.process(waiter())) == 0.0
