"""Resource contention, CPU scaling, disk cost model."""

import collections

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import CPU, Disk, Environment, Interrupt, Resource
from repro.sim.process import Process
from repro.sim.resources import BACKGROUND_PATIENCE, BACKGROUND_SLICE_MS


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_single_capacity_serialises_users():
    env = Environment()
    res = Resource(env, capacity=1)
    finish = []

    def user(tag):
        yield res.use(10)
        finish.append((tag, env.now))

    env.process(user("a"))
    env.process(user("b"))
    env.run()
    assert finish == [("a", 10.0), ("b", 20.0)]


def test_capacity_two_allows_parallelism():
    env = Environment()
    res = Resource(env, capacity=2)
    finish = []

    def user(tag):
        yield res.use(10)
        finish.append((tag, env.now))

    for tag in ("a", "b", "c"):
        env.process(user(tag))
    env.run()
    assert finish == [("a", 10.0), ("b", 10.0), ("c", 20.0)]


def test_fifo_ordering_of_waiters():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(tag, delay):
        yield env.timeout(delay)
        yield res.use(5)
        order.append(tag)

    env.process(user("first", 0))
    env.process(user("second", 1))
    env.process(user("third", 2))
    env.run()
    assert order == ["first", "second", "third"]


def test_cpu_speed_factor_scales_cost():
    env = Environment()
    fast = CPU(env, speed_factor=2.0)
    slow = CPU(env, speed_factor=0.5)
    times = {}

    def work(cpu, tag):
        yield cpu.compute(10)
        times[tag] = env.now

    env.process(work(fast, "fast"))
    env.process(work(slow, "slow"))
    env.run()
    assert times["fast"] == 5.0
    assert times["slow"] == 20.0


def test_cpu_rejects_bad_speed():
    env = Environment()
    with pytest.raises(ValueError):
        CPU(env, speed_factor=0)


def test_disk_read_charges_access_plus_transfer():
    env = Environment()
    disk = Disk(env, access_ms=30, per_kb_ms=2)

    def reader():
        yield disk.read(2048)
        return env.now

    p = env.process(reader())
    assert env.run(until=p) == 34.0  # 30 + 2 KB * 2 ms/KB


def test_disk_serialises_concurrent_reads():
    env = Environment()
    disk = Disk(env, access_ms=10, per_kb_ms=0)
    finish = []

    def reader(tag):
        yield disk.read(0)
        finish.append((tag, env.now))

    env.process(reader(1))
    env.process(reader(2))
    env.run()
    assert finish == [(1, 10.0), (2, 20.0)]


def test_negative_sizes_rejected():
    env = Environment()
    disk = Disk(env)
    with pytest.raises(ValueError):
        list(disk.read(-1))
    res = Resource(env)
    with pytest.raises(ValueError):
        list(res.use(-1))


@pytest.mark.parametrize("background", [False, True])
def test_nan_service_time_rejected(background):
    env = Environment()
    cpu = CPU(env)
    with pytest.raises(ValueError):
        cpu.compute(float("nan"), background)
    with pytest.raises(ValueError):
        Resource(env).use(float("nan"), background)
    assert cpu.in_use == 0 and cpu.queue_length == 0
    assert env.peek() == float("inf")


# ----------------------------------------------------------------------
# One kernel event per uncontended charge
# ----------------------------------------------------------------------
def test_uncontended_use_schedules_exactly_one_kernel_event():
    env = Environment()
    res = Resource(env)
    scheduled = []

    def user():
        before = env.kernel_counters()["sim.kernel.events_scheduled"]
        yield res.use(5)
        after = env.kernel_counters()["sim.kernel.events_scheduled"]
        scheduled.append(after - before)

    env.process(user())
    env.run()
    assert scheduled == [1]  # the hold; no grant event on a free unit
    assert env.now == 5.0


# ----------------------------------------------------------------------
# The charge budget: heap entries and wake-ups of the waiter
# ----------------------------------------------------------------------
def _count_segments(monkeypatch):
    """Each process's segments by name: its start plus every wake-up,
    one ``Process._resume`` call each."""
    begun = collections.Counter()
    resume = Process._resume

    def counted(self, event=None):
        begun[self.name] += 1
        resume(self, event)

    monkeypatch.setattr(Process, "_resume", counted)
    return begun


def _scheduled(env):
    return env.kernel_counters()["sim.kernel.events_scheduled"]


def test_contended_charge_is_one_heap_entry_and_one_wakeup(monkeypatch):
    begun = _count_segments(monkeypatch)
    env = Environment()
    res = Resource(env)
    scheduled = []

    def holder():
        yield res.use(10)

    def waiter():
        before = _scheduled(env)
        yield res.use(5)  # queues behind the holder
        scheduled.append(_scheduled(env) - before)

    env.process(holder())
    env.process(waiter(), name="waiter")
    env.run()
    assert env.now == 15.0
    # Its hold, scheduled by the holder's release: no grant event, and
    # no wake-up just to start the hold (2 and 2 before).
    assert scheduled == [1]
    assert begun["waiter"] - 1 == 1


def test_background_job_is_idle_check_plus_one_entry_and_no_wakeup_per_slice(
    monkeypatch,
):
    begun = _count_segments(monkeypatch)
    env = Environment()
    res = Resource(env)
    slices = 3
    scheduled = []

    def job():
        before = _scheduled(env)
        yield res.use((slices - 0.5) * BACKGROUND_SLICE_MS, background=True)
        scheduled.append(_scheduled(env) - before)

    env.process(job(), name="job")
    env.run()
    assert env.now == (slices - 0.5) * BACKGROUND_SLICE_MS
    assert scheduled == [1 + slices]  # was 2 + n: a grant event as well
    assert begun["job"] - 1 == 1  # was 1 + n: woken per slice


def test_zero_cost_charge_on_a_free_unit_schedules_nothing():
    env = Environment()
    res = Resource(env)
    scheduled = []

    def user():
        before = _scheduled(env)
        yield res.use(0)
        scheduled.append((_scheduled(env) - before, env.now, res.in_use))

    env.process(user())
    env.run()
    assert scheduled == [(0, 0.0, 0)]


def test_resolver_zero_cost_compute_never_waits_behind_a_busy_cpu():
    from repro.bind.primary import charge
    from repro.net import Internetwork

    env = Environment()
    net = Internetwork(env)
    host = net.add_host("client", net.add_segment())
    done = []

    def hog():
        yield host.cpu.compute(10)

    def payer():
        yield charge(host, 0)
        done.append(env.now)
        yield charge(host, 2)  # a real charge does queue
        done.append(env.now)

    env.process(hog())
    env.process(payer())
    env.run()
    assert done == [0.0, 12.0]


def test_yield_from_a_charge_is_a_type_error():
    # The migration guard: a charge is an event to ``yield``, and an
    # event is not iterable.
    env = Environment()
    cpu = CPU(env)

    def stale_caller():
        charge = cpu.compute(1)
        yield from charge

    env.process(stale_caller())
    with pytest.raises(TypeError, match="not iterable"):
        env.run()


# ----------------------------------------------------------------------
# Interrupts must not leak the unit
# ----------------------------------------------------------------------
def _interrupt_scenario(background, interrupt_at):
    """A holds [0, 10]; B queues behind it and is interrupted; C comes last."""
    env = Environment()
    res = Resource(env)
    outcome = {}

    def holder():
        yield res.use(10)

    def victim():
        try:
            yield res.use(5, background=background)
        except Interrupt:
            outcome["victim"] = env.now

    def interrupter(target):
        yield env.timeout(interrupt_at)
        target.interrupt("stop")

    def latecomer():
        yield env.timeout(11)
        yield res.use(5)
        outcome["latecomer"] = env.now

    env.process(holder())
    target = env.process(victim())
    env.process(interrupter(target))
    env.process(latecomer())
    env.run()
    return res, outcome


@pytest.mark.parametrize("background", [False, True])
def test_interrupted_waiter_leaves_the_queue(background):
    res, outcome = _interrupt_scenario(background, interrupt_at=2)
    assert outcome == {"victim": 2.0, "latecomer": 16.0}
    assert res.in_use == 0 and res.queue_length == 0


@pytest.mark.parametrize("background", [False, True])
def test_interrupted_just_granted_holder_releases(background):
    # The interrupt lands at t=10, after the holder's release granted
    # the victim the unit but before the victim resumed to use it.
    res, outcome = _interrupt_scenario(background, interrupt_at=10)
    assert outcome == {"victim": 10.0, "latecomer": 16.0}
    assert res.in_use == 0 and res.queue_length == 0


def test_interrupted_uncontended_holder_releases():
    env = Environment()
    res = Resource(env)

    def holder():
        try:
            yield res.use(10)
        except Interrupt:
            pass

    def interrupter(target):
        yield env.timeout(3)
        target.interrupt()
        assert res.in_use == 1
        yield env.timeout(0)
        assert res.in_use == 0

    env.process(interrupter(env.process(holder())))
    env.run()


# ----------------------------------------------------------------------
# The background lane
# ----------------------------------------------------------------------
def test_background_never_splits_back_to_back_foreground_charges():
    env = Environment()
    cpu = CPU(env)
    log = []

    def foreground():
        for _ in range(3):
            yield cpu.compute(1)
        log.append(("fg", env.now))

    def background():
        yield env.timeout(0.5)  # arrives while the first charge holds
        yield cpu.compute(2, background=True)
        log.append(("bg", env.now))

    env.process(foreground())
    env.process(background())
    env.run()
    assert log == [("fg", 3.0), ("bg", 5.0)]


def test_foreground_arriving_mid_slice_waits_at_most_one_slice():
    env = Environment()
    cpu = CPU(env)
    log = []

    def background(tag, cost):
        yield cpu.compute(cost, background=True)
        log.append((tag, env.now))

    def foreground():
        yield env.timeout(5)  # mid-way through the slice [4, 8]
        asked = env.now
        yield cpu.compute(1)
        log.append(("fg", env.now))
        assert env.now - asked <= BACKGROUND_SLICE_MS + 1

    env.process(background("first", 20))
    env.process(background("second", 2))
    env.process(foreground())
    env.run()
    # The preempted job resumes ahead of the one queued behind it.
    assert log == [("fg", 9.0), ("first", 21.0), ("second", 23.0)]


def test_background_requests_are_fifo_among_themselves():
    env = Environment()
    res = Resource(env)
    log = []

    def holder():
        yield res.use(10)

    def background(tag, arrive):
        yield env.timeout(arrive)
        yield res.use(2, background=True)
        log.append((tag, env.now))

    env.process(holder())
    for tag, arrive in (("a", 1), ("b", 2), ("c", 3)):
        env.process(background(tag, arrive))
    env.run()
    assert log == [("a", 12.0), ("b", 14.0), ("c", 16.0)]


def test_background_job_on_a_saturated_unit_completes_by_the_patience_bound():
    env = Environment()
    res = Resource(env)
    hold, cost, arrive = 5.0, 2.0, 1.0

    def looper():
        while True:  # two of these: one always holds, one always waits
            yield res.use(hold)

    def background():
        yield env.timeout(arrive)
        yield res.use(cost, background=True)
        return env.now

    env.process(looper())
    env.process(looper())
    done = env.run(until=env.process(background()))
    # Turned foreground at the first release past the deadline, behind
    # the one waiter already queued.
    assert done <= arrive + BACKGROUND_PATIENCE * cost + 2 * hold + cost
    assert done > arrive + BACKGROUND_PATIENCE * cost


def test_a_cheaper_charge_behind_the_head_is_promoted_at_its_own_deadline():
    """Patience is per charge: one queued behind a costlier head has the
    earlier deadline, and turns foreground at the first release after
    it, not the head's."""
    env = Environment()
    res = Resource(env)
    hold = 5.0
    done = {}

    def looper():
        while True:  # two of these: one always holds, one always waits
            yield res.use(hold)

    def background(tag, arrive, cost):
        yield env.timeout(arrive)
        yield res.use(cost, background=True)
        done[tag] = env.now

    env.process(looper())
    env.process(looper())
    env.process(background("head", 1.0, 4.0))
    env.process(background("cheap", 2.0, 1.0))
    env.run(until=200.0)
    head_deadline = 1.0 + BACKGROUND_PATIENCE * 4.0
    cheap_deadline = 2.0 + BACKGROUND_PATIENCE * 1.0
    # the first release past 42 ms is at 45; the looper queued at 40
    # holds first, then the promoted charge
    assert done["cheap"] == 45.0 + hold + 1.0
    assert cheap_deadline < done["cheap"] < head_deadline < done["head"]


# ----------------------------------------------------------------------
# Generated schedules
# ----------------------------------------------------------------------
#: (kind, arrival ms, cost ms, interrupt after arrival in ms or None)
_ACTORS = st.lists(
    st.tuples(
        st.sampled_from(["fg", "bg"]),
        st.integers(0, 12),
        st.sampled_from([0.0, 0.5, 1.0, 3.0, 4.0, 6.0, 9.0]),
        st.one_of(st.none(), st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0, 5.0, 10.0])),
    ),
    min_size=1,
    max_size=12,
)


#: long foreground holds beside cheap background charges: the
#: foreground load outlasts some background charge's patience (40 ms
#: for one of at most 1 ms) on about half the schedules
_LAPSING_ACTORS = st.lists(
    st.one_of(
        st.tuples(
            st.just("fg"),
            st.integers(0, 30),
            st.sampled_from([9.0, 20.0, 45.0]),
            st.one_of(st.none(), st.none(), st.sampled_from([5.0, 60.0])),
        ),
        st.tuples(
            st.just("bg"),
            st.integers(0, 30),
            st.sampled_from([0.5, 1.0, 3.0]),
            st.one_of(st.none(), st.none(), st.sampled_from([5.0, 60.0])),
        ),
    ),
    min_size=6,
    max_size=16,
)


class EagerScanResource(Resource):
    """The reference: the promotion scan at every release, whatever the
    earliest deadline."""

    def _free(self, _hold=None):
        self._next_deadline = -float("inf")
        super()._free(_hold)


def _run_schedule(capacity, actors, stepped=True, kind=Resource):
    """Run ``actors`` on one ``kind`` of resource; returns the actors'
    event log.

    Stepped, it checks the resource's bookkeeping after every kernel
    step and, at the end, the order and length of the foreground grants.
    """
    env = Environment()
    res = kind(env, capacity=capacity)
    log = []
    #: (actor, claim, foreground, cost) in the order the claims were made
    claims = []

    def actor(i, kind, arrive, cost):
        try:
            yield env.timeout(arrive)
            charge = res.use(cost, background=kind == "bg")
            claims.append((i, charge, kind == "fg" or cost == 0, cost))
            yield charge
            log.append((env.now, i, "done"))
        except Interrupt:
            log.append((env.now, i, "interrupted"))

    def interrupter(target, at):
        yield env.timeout(at)
        if target.is_alive:
            target.interrupt()

    for i, (kind, arrive, cost, interrupt_after) in enumerate(actors):
        process = env.process(actor(i, kind, arrive, cost))
        if interrupt_after is not None:
            env.process(interrupter(process, arrive + interrupt_after))

    if not stepped:
        env.run()
        return log

    granted = {}  # actor -> (kernel step, simulated time) of its grant
    step = 0
    while env.peek() < float("inf"):
        env.step()
        step += 1
        queued = list(res._waiting) + list(res._background)
        held = [
            claim
            for _, claim, _, _ in claims
            if claim.held and not claim.processed
        ]
        assert res.in_use == len(held)
        assert len(set(map(id, queued))) == len(queued)
        assert not any(claim.held for claim in queued)
        # a unit is idle only while no foreground claim waits for it
        assert not res._waiting or res.in_use == capacity
        for i, claim, foreground, _ in claims:
            if foreground and i not in granted and (claim.held or claim.processed):
                granted[i] = (step, env.now)

    # Foreground claims get the unit in the order they asked for it.
    steps = [granted[i][0] for i, _, foreground, _ in claims if i in granted]
    assert steps == sorted(steps)
    # A whole hold ends at its grant time plus its cost.
    done = {i: t for t, i, what in log if what == "done"}
    for i, claim, foreground, cost in claims:
        if foreground and i in done:
            assert done[i] == granted[i][1] + cost
    assert res.in_use == 0 and res.queue_length == 0
    return log


@settings(max_examples=150, deadline=None)
@given(capacity=st.sampled_from([1, 2]), actors=_ACTORS)
def test_charges_under_generated_schedules(capacity, actors):
    log = _run_schedule(capacity, actors)
    # every actor ends exactly once, done or interrupted
    ends = [i for _, i, _ in log]
    assert sorted(ends) == list(range(len(actors)))
    # step() and run()'s drain process the same events in the same order
    assert _run_schedule(capacity, actors, stepped=False) == log


@settings(max_examples=150, deadline=None)
@given(capacity=st.sampled_from([1, 2]), actors=_LAPSING_ACTORS)
def test_lazy_promotion_matches_an_eager_scan(capacity, actors):
    """``_free`` scans for lapsed patience only once the earliest
    background deadline has passed; on schedules where patience lapses
    that changes nothing an actor sees."""
    log = _run_schedule(capacity, actors)
    assert _run_schedule(capacity, actors, stepped=False, kind=EagerScanResource) == log
