"""Process semantics: composition, interrupts, error surfacing."""

import pytest

from repro.sim import Environment, Interrupt


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_process_return_value():
    env = Environment()

    def proc():
        yield env.timeout(1)
        return {"answer": 42}

    p = env.process(proc())
    assert env.run(until=p) == {"answer": 42}


def test_process_is_alive_until_done():
    env = Environment()

    def proc():
        yield env.timeout(10)

    p = env.process(proc())
    env.run(until=5)
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_yielding_non_event_is_an_error():
    env = Environment()

    def proc():
        yield 42  # type: ignore[misc]

    env.process(proc())
    with pytest.raises(RuntimeError, match="may only yield Event"):
        env.run()


def test_interrupt_wakes_sleeping_process():
    env = Environment()
    log = []

    def sleeper():
        try:
            yield env.timeout(100)
            log.append("slept-full")
        except Interrupt as intr:
            log.append(("interrupted", env.now, intr.cause))

    def interrupter(target):
        yield env.timeout(3)
        target.interrupt("server crashed")

    target = env.process(sleeper())
    env.process(interrupter(target))
    env.run()
    assert log == [("interrupted", 3.0, "server crashed")]


def test_interrupted_process_can_continue():
    env = Environment()

    def sleeper():
        try:
            yield env.timeout(100)
        except Interrupt:
            yield env.timeout(5)  # retry path
            return "recovered"
        return "no-interrupt"

    def interrupter(target):
        yield env.timeout(2)
        target.interrupt()

    p = env.process(sleeper())
    env.process(interrupter(p))
    assert env.run(until=p) == "recovered"
    assert env.now == 7.0


def test_interrupt_finished_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(1)

    p = env.process(quick())
    env.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_stale_timeout_does_not_resume_interrupted_process():
    env = Environment()
    resumptions = []

    def sleeper():
        try:
            yield env.timeout(10)
            resumptions.append("timeout")
        except Interrupt:
            resumptions.append("interrupt")
            yield env.timeout(50)
            resumptions.append("after")

    def interrupter(target):
        yield env.timeout(1)
        target.interrupt()

    p = env.process(sleeper())
    env.process(interrupter(p))
    env.run()
    # The original timeout at t=10 must not re-enter the process.
    assert resumptions == ["interrupt", "after"]


def _victim(env, log):
    """Sleeps 5; on an interrupt, sleeps 10 for the value ``"ten"``."""
    try:
        yield env.timeout(5)
    except Interrupt as intr:
        log.append(("interrupted", env.now, intr.cause))
    got = yield env.timeout(10, "ten")
    log.append((env.now, got))


def test_interrupt_before_the_first_segment_fails_the_process_unrun():
    # The start event still held ``_resume`` while ``_target`` was None,
    # so the body started anyway, caught the Interrupt, and was woken
    # again by its abandoned timeout(5) — with None, at t=5 — until
    # run() died at t=10 with "event already triggered".
    env = Environment()
    log = []
    p = env.process(_victim(env, log))
    p.interrupt("early")
    with pytest.raises(Interrupt) as caught:
        env.run()
    assert caught.value.cause == "early"
    assert env.now == 0.0 and not p.is_alive
    env.run()  # nothing left that could resume it
    assert log == []


def test_waiter_on_a_process_interrupted_before_it_ran_sees_the_interrupt():
    env = Environment()
    log = []

    def supervisor():
        child = env.process(_victim(env, log))
        child.interrupt("early")
        try:
            yield child
        except Interrupt as intr:
            return (env.now, intr.cause)

    assert env.run(until=env.process(supervisor())) == (0.0, "early")
    env.run()
    assert log == [] and env.now == 0.0


def test_interrupt_in_the_starting_instant_but_after_the_first_segment():
    # Same instant, one start event later: the victim is parked on its
    # timeout(5), so this is an ordinary interrupt.
    env = Environment()
    log = []

    def interrupter(target):
        target.interrupt("late")
        yield env.timeout(0)

    env.process(interrupter(env.process(_victim(env, log))))
    env.run()
    assert log == [("interrupted", 0.0, "late"), (10.0, "ten")]


def test_exception_inside_process_propagates_to_waiter():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise LookupError("no such name")

    def waiter():
        try:
            yield env.process(bad())
        except LookupError:
            return "caught"
        return "missed"

    p = env.process(waiter())
    assert env.run(until=p) == "caught"


def test_many_concurrent_processes():
    env = Environment()
    done = []

    def proc(i):
        yield env.timeout(i % 7)
        done.append(i)

    for i in range(200):
        env.process(proc(i))
    env.run()
    assert sorted(done) == list(range(200))


# ----------------------------------------------------------------------
# What a process does not cost: exit events nobody waits on, start events
# ----------------------------------------------------------------------
def test_unwaited_return_is_processed_at_once_and_still_waitable():
    env = Environment()

    def worker():
        yield env.timeout(3)
        return "done"

    worker_proc = env.process(worker())
    env.run()
    assert worker_proc.processed and worker_proc.value == "done"
    # start event + the timeout; the exit is not a heap entry
    assert env.kernel_counters()["sim.kernel.events_scheduled"] == 2

    def late_waiter():
        direct = yield worker_proc
        both = yield env.all_of([worker_proc])
        return direct, both[worker_proc], env.now

    assert env.run(until=env.process(late_waiter())) == ("done", "done", 3.0)
    assert env.run(until=worker_proc) == "done"


def test_unwaited_raise_still_fails_run_at_that_instant():
    env = Environment()

    def worker():
        yield env.timeout(3)
        raise ValueError("lost")

    env.process(worker())
    env.timeout(10)
    with pytest.raises(ValueError, match="lost"):
        env.run()
    assert env.now == 3.0


def test_inline_start_runs_first_segment_inside_the_caller():
    env = Environment()
    log = []

    def child():
        log.append(("child", env.active_process.name))
        yield env.timeout(1)
        log.append(("child-resumed", env.now))
        return "c"

    def parent():
        yield env.timeout(4)
        before = env.kernel_counters()["sim.kernel.events_scheduled"]
        started = env.process(child(), name="kid", inline=True)
        log.append(("parent", env.active_process.name))
        # only the child's own timeout was scheduled: no start event
        assert env.kernel_counters()["sim.kernel.events_scheduled"] == before + 1
        return (yield started)

    assert env.run(until=env.process(parent(), name="mum")) == "c"
    assert log == [("child", "kid"), ("parent", "mum"), ("child-resumed", 5.0)]


def test_inline_start_outside_any_process_leaves_no_active_process():
    env = Environment()

    def child():
        yield env.timeout(1)

    env.process(child(), inline=True)
    assert env.active_process is None
    env.run()


def test_span_opened_after_an_inline_start_still_parents_to_the_caller():
    env = Environment()
    env.obs.enabled = True

    def child():
        with env.obs.span("child.work"):
            yield env.timeout(1)

    def parent():
        with env.obs.span("parent.op"):
            env.process(child(), name="kid", inline=True)
            with env.obs.span("parent.after"):
                yield env.timeout(2)

    env.run(until=env.process(parent(), name="mum"))
    spans = {span.name: span for span in env.obs.spans}
    assert spans["parent.after"].parent_id == spans["parent.op"].span_id
    assert spans["parent.after"].process == "mum"
    # the child is its own process: a fresh stack, so a root of its own
    assert spans["child.work"].parent_id is None
    assert spans["child.work"].process == "kid"


@pytest.mark.parametrize("raise_before_first_yield", [True, False])
def test_inline_started_process_that_raises(raise_before_first_yield):
    """Raising in the inline segment is a failed process, not an
    exception thrown into the caller."""
    env = Environment()

    def child():
        if raise_before_first_yield:
            raise KeyError("boom")
        yield env.timeout(0)
        raise KeyError("boom")

    def waiting_parent():
        started = env.process(child(), inline=True)
        try:
            yield started
        except KeyError:
            return "caught"

    assert env.run(until=env.process(waiting_parent())) == "caught"

    def careless_parent():
        env.process(child(), inline=True)
        yield env.timeout(5)

    env.process(careless_parent())
    with pytest.raises(KeyError, match="boom"):
        env.run()
    assert env.now == 0.0


def test_a_long_run_of_finished_events_yielded_in_a_row_costs_no_stack():
    """Each already-processed event feeds the next segment in the same
    ``_resume`` frame, so 3 000 of them in a row (well past the default
    recursion limit) neither recurse nor leave the instant."""
    env = Environment()

    def finished(i):
        return i
        yield  # pragma: no cover - makes this a generator

    procs = [env.process(finished(i), inline=True) for i in range(3_000)]
    assert all(p.processed for p in procs)

    def summer():
        total = 0
        for p in procs:
            total += yield p
        return total

    assert env.run(until=env.process(summer())) == sum(range(3_000))
    assert env.now == 0.0
