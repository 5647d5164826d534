"""Resource contention and the disk cost model."""

import collections

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import CPU, Disk, Environment, Interrupt, Resource
from repro.sim.events import _PENDING, Event, Timeout
from repro.sim import resources
from repro.sim.process import Process
from repro.sim.resources import BACKGROUND_PATIENCE, BACKGROUND_SLICE_MS
from tests.cost import window

_INF = float("inf")


def test_resource_takes_no_capacity():
    """A resource is one unit: there is no knob to give it more."""
    env = Environment()
    with pytest.raises(TypeError):
        Resource(env, capacity=2)  # type: ignore[call-arg]


def test_single_capacity_serialises_users():
    env = Environment()
    res = Resource(env)
    finish = []

    def user(tag):
        yield res.use(10)
        finish.append((tag, env.now))

    env.process(user("a"))
    env.process(user("b"))
    env.run()
    assert finish == [("a", 10.0), ("b", 20.0)]


def test_fifo_ordering_of_waiters():
    env = Environment()
    res = Resource(env)
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


def test_disk_read_charges_access_plus_transfer(monkeypatch):
    monkeypatch.setattr(resources, "DISK_PER_KB_MS", 2.0)
    env = Environment()
    disk = Disk(env)

    def reader():
        yield disk.read(2048)
        return env.now

    p = env.process(reader())
    assert env.run(until=p) == 34.0  # 30 + 2 KB * 2 ms/KB


def test_disk_serialises_concurrent_reads(monkeypatch):
    monkeypatch.setattr(resources, "DISK_ACCESS_MS", 10.0)
    env = Environment()
    disk = Disk(env)
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
#: (kind, arrival ms, cost ms, interrupt after arrival in ms or None);
#: an "fg2" actor makes two foreground charges back to back
_ACTORS = st.lists(
    st.tuples(
        st.sampled_from(["fg", "bg", "fg2"]),
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


class CountedCharge(Event):
    """The reference resource's charge: it records whether it holds."""

    __slots__ = ("resource", "held", "deadline", "remaining")

    def _waiter_left(self, _interrupt):
        if self.callbacks is not None:
            if self._value is not _PENDING:
                self.callbacks.remove(self.resource._free)
            self.resource._release(self)


class CountedResource:
    """The reference: the counted resource a single unit replaced.  It
    counts units in use, and every hold's entry carries ``_free``, which
    runs when the hold ends whether or not anyone waits."""

    capacity = 1

    def __init__(self, env):
        self.env = env
        self._in_use = 0
        self._waiting = collections.deque()
        self._background = collections.deque()
        self._next_deadline = _INF
        self._idle_check_pending = False

    @property
    def queue_length(self):
        return len(self._waiting) + len(self._background)

    def use(self, service_ms, background=False):
        env = self.env
        charge = object.__new__(CountedCharge)
        charge.env = env
        charge.callbacks = []
        charge._value = _PENDING
        charge._exception = None
        charge._defused = False
        charge.resource = self
        charge.held = False
        charge.remaining = service_ms
        if background and service_ms > 0:
            deadline = env.now + BACKGROUND_PATIENCE * max(service_ms, 1.0)
            charge.deadline = deadline
            if deadline < self._next_deadline:
                self._next_deadline = deadline
            self._background.append(charge)
            if self._in_use < self.capacity:
                self._schedule_idle_check()
            return charge
        charge.deadline = _INF
        if self._in_use >= self.capacity:
            self._waiting.append(charge)
        elif service_ms > 0:
            self._in_use += 1
            charge.held = True
            charge._value = None
            charge.callbacks.append(self._free)
            eid = env._eid
            env._eid = eid + 1
            env._push((env.now + service_ms, eid, charge))
        else:
            self._in_use += 1
            self._free()
            charge.succeed_now()
        return charge

    def _hold(self, charge):
        env = self.env
        remaining = charge.remaining
        if remaining > BACKGROUND_SLICE_MS:
            charge.remaining = remaining - BACKGROUND_SLICE_MS
            env.call_later(BACKGROUND_SLICE_MS, self._on_slice_end, charge)
            return
        charge._value = None
        charge.callbacks.insert(0, self._free)
        eid = env._eid
        env._eid = eid + 1
        env._push((env.now + remaining, eid, charge))

    def _on_slice_end(self, timer):
        charge = timer._value
        if not charge.held:
            return
        if not self._waiting:
            self._hold(charge)
            return
        charge.held = False
        self._free()
        if self.env.now < charge.deadline:
            self._background.appendleft(charge)
            if charge.deadline < self._next_deadline:
                self._next_deadline = charge.deadline
        else:
            self._waiting.append(charge)

    def _release(self, charge):
        if charge.held:
            charge.held = False
            self._free()
            return
        for lane in (self._waiting, self._background):
            if charge in lane:
                lane.remove(charge)
                return
        raise RuntimeError("a charge that neither holds nor waits for the resource")

    def _free(self, _hold=None):
        self._in_use -= 1
        background = self._background
        if background and self._next_deadline <= self.env.now:
            self._promote_lapsed()
        waiting = self._waiting
        if not waiting:
            if background:
                self._schedule_idle_check()
            return
        charge = waiting.popleft()
        self._in_use += 1
        charge.held = True
        if charge.deadline < _INF:
            self._hold(charge)
        else:
            env = self.env
            charge._value = None
            charge.callbacks.insert(0, self._free)
            eid = env._eid
            env._eid = eid + 1
            env._push((env.now + charge.remaining, eid, charge))

    def _promote_lapsed(self):
        background = self._background
        now = self.env.now
        for charge in [c for c in background if c.deadline <= now]:
            background.remove(charge)
            self._waiting.append(charge)
        self._next_deadline = min((c.deadline for c in background), default=_INF)

    def _schedule_idle_check(self):
        if not self._idle_check_pending:
            self._idle_check_pending = True
            self.env.call_later(0.0, self._on_idle_check)

    def _on_idle_check(self, _check):
        self._idle_check_pending = False
        background = self._background
        while background and self._in_use < self.capacity:
            charge = background.popleft()
            self._in_use += 1
            charge.held = True
            self._hold(charge)


def _check_bookkeeping(res, claims):
    """After a kernel step: the unit's holder, the lanes and the
    hand-on agree with the claims made so far."""
    queued = list(res._waiting) + list(res._background)
    holder = res._holder
    held = [
        claim for _, claim, _, _ in claims if claim is holder and not claim.processed
    ]
    assert res.in_use == len(held) <= 1
    assert len(set(map(id, queued))) == len(queued)
    assert holder is None or holder not in queued
    # a unit is idle only while no foreground claim waits for it, and
    # background work waits on an idle unit only behind a pending check
    assert not res._waiting or res.in_use == 1
    assert not res._background or res.in_use == 1 or res._check.callbacks
    if res.in_use and queued:
        # someone waits, so the hold ends by handing the unit on
        assert res._armed
    if res.in_use and holder._value is not _PENDING:
        # the hold's entry is in the heap: _free rides on it iff armed
        assert holder.callbacks.count(res._free) == int(res._armed)


def _run_schedule(actors, stepped=True, kind=Resource, perturb_seed=None):
    """Run ``actors`` on one ``kind`` of resource; returns the actors'
    event log and, stepped, each kernel step's ``(time, eid)`` (its
    tie-break key, under ``perturb_seed``).

    Stepped, a :class:`Resource`'s bookkeeping is checked after every
    kernel step and, at the end, the order and length of the foreground
    grants.
    """
    env = Environment(perturb_seed=perturb_seed)
    res = kind(env)
    log = []
    #: (actor, claim, foreground, cost) in the order the claims were made
    claims = []
    #: claim index -> when its waiter resumed
    ended = {}
    #: actors whose body has begun (a perturbed tie-break can fire an
    #: interrupter first, which would fail the actor unbegun)
    begun = set()

    def actor(i, kind, arrive, cost):
        begun.add(i)
        try:
            yield env.timeout(arrive)
            for _ in range(2 if kind == "fg2" else 1):
                charge = res.use(cost, background=kind == "bg")
                j = len(claims)
                claims.append((i, charge, kind != "bg" or cost == 0, cost))
                yield charge
                ended[j] = env.now
            log.append((env.now, i, "done"))
        except Interrupt:
            log.append((env.now, i, "interrupted"))

    def interrupter(i, target, at):
        yield env.timeout(at)
        if target.is_alive and i in begun:
            target.interrupt()

    for i, (kind, arrive, cost, interrupt_after) in enumerate(actors):
        process = env.process(actor(i, kind, arrive, cost))
        if interrupt_after is not None:
            env.process(interrupter(i, process, arrive + interrupt_after))

    if not stepped:
        env.run()
        return log, None

    checked = isinstance(res, Resource)
    steps = []
    granted = {}  # claim index -> (kernel step, simulated time) of its grant
    while env.peek() < float("inf"):
        time, eid, _ = env._queue.heap[0]
        steps.append((time, eid))
        env.step()
        if not checked:
            continue
        _check_bookkeeping(res, claims)
        for j, (_, claim, foreground, _) in enumerate(claims):
            if foreground and j not in granted and (
                claim is res._holder or claim.processed
            ):
                granted[j] = (len(steps), env.now)

    if checked:
        # Foreground claims get the unit in the order they asked for it.
        order = [
            granted[j][0]
            for j, (_, _, foreground, _) in enumerate(claims)
            if j in granted
        ]
        assert order == sorted(order)
        # A whole hold ends at its grant time plus its cost.
        for j, (_, _, foreground, cost) in enumerate(claims):
            if foreground and j in ended:
                assert ended[j] == granted[j][1] + cost
    assert res.queue_length == 0
    assert not checked or res.in_use == 0
    return log, steps


@settings(max_examples=150, deadline=None)
@given(actors=_ACTORS)
def test_charges_under_generated_schedules(actors):
    log, _ = _run_schedule(actors)
    # every actor ends exactly once, done or interrupted
    ends = [i for _, i, _ in log]
    assert sorted(ends) == list(range(len(actors)))
    # step() and run()'s drain process the same events in the same order
    assert _run_schedule(actors, stepped=False)[0] == log


@settings(max_examples=150, deadline=None)
@given(actors=_LAPSING_ACTORS)
def test_lazy_promotion_matches_an_eager_scan(actors):
    """``_free`` scans for lapsed patience only once the earliest
    background deadline has passed; on schedules where patience lapses
    that changes nothing an actor sees."""
    log, _ = _run_schedule(actors)
    assert _run_schedule(actors, stepped=False, kind=EagerScanResource)[0] == log


@settings(max_examples=150, deadline=None)
@given(
    actors=st.one_of(_ACTORS, _LAPSING_ACTORS),
    perturb_seed=st.one_of(st.none(), st.integers(0, 2**16)),
)
def test_single_unit_matches_the_counted_resource(actors, perturb_seed):
    """The single unit frees its hold lazily and reuses one idle-check
    entry, and the counted resource ran ``_free`` at the end of every
    hold and pushed a fresh check each time: the same heap entries pop
    in the same order at the same instants, FIFO or under a perturbed
    tie-break, and every actor sees the same thing."""
    assert _run_schedule(actors, perturb_seed=perturb_seed) == _run_schedule(
        actors, kind=CountedResource, perturb_seed=perturb_seed
    )


def _watch_the_check(monkeypatch):
    """Count the idle check's pushes, empties and re-arms."""
    seen = collections.Counter()
    schedule, use = Resource._schedule_idle_check, Resource.use

    def watched_schedule(self):
        seen["re-armed" if self._check.callbacks == [] else "scheduled"] += 1
        schedule(self)

    def watched_use(self, service_ms, background=False):
        pending = bool(self._check.callbacks)
        charge = use(self, service_ms, background)
        if pending and self._check.callbacks == []:
            seen["emptied"] += 1
        return charge

    monkeypatch.setattr(Resource, "_schedule_idle_check", watched_schedule)
    monkeypatch.setattr(Resource, "use", watched_use)
    return seen


@pytest.mark.parametrize(
    "actors, perturb_seed, path",
    [
        # a background charge waits while one process charges back to
        # back: the idle check pushed as the first charge ends is moot
        # once the second takes the free unit
        pytest.param(
            [("bg", 1, 3.0, None), ("fg2", 0, 4.0, None), ("fg2", 6, 1.0, None)],
            None,
            {"scheduled": 3, "emptied": 2},
            id="back-to-back-foreground",
        ),
        # a zero-cost charge lands on the free unit while the check is
        # pending (and leaves it pending), then one on a unit a
        # background slice holds
        pytest.param(
            [("bg", 2, 9.0, None), ("fg", 2, 0.0, None), ("fg", 4, 0.0, None)],
            None,
            {"scheduled": 3},
            id="zero-cost-on-a-free-unit",
        ),
        # the claim that emptied the check is interrupted in the same
        # instant, and (in this seed's tie-break) the interrupt lands
        # first: the release re-arms the check, which grants at its own
        # entry.  In FIFO order the check always pops first.
        pytest.param(
            [("bg", 2, 3.0, None), ("fg", 2, 1.0, 0.0)],
            18,
            {"scheduled": 1, "emptied": 1, "re-armed": 1},
            id="interrupt-re-arms-the-check",
        ),
    ],
)
def test_the_reusable_idle_check_matches_the_counted_resource(
    monkeypatch, actors, perturb_seed, path
):
    """The idle check is one reusable entry that a foreground claim
    empties and a release re-arms; the reference pushes a fresh timer
    each time.  Same ``(time, eid)`` at every kernel step, same log."""
    seen = _watch_the_check(monkeypatch)
    ours = _run_schedule(actors, perturb_seed=perturb_seed)
    assert dict(seen) == path
    assert ours == _run_schedule(
        actors, kind=CountedResource, perturb_seed=perturb_seed
    )


def test_an_idle_check_and_a_slice_build_no_timer():
    """A background job on a free unit: its idle check and its slice
    timers are pushed in place, with no ``call_later`` or ``timeout``
    frame and no ``Timeout``."""
    env = Environment()
    res = Resource(env)
    popped = []
    cost = window(
        env, lambda: res.use(2.5 * BACKGROUND_SLICE_MS, background=True), 20
    )
    # each job: the check, two slices and its last hold
    assert cost.heap_entries == 4
    assert cost.calls_to(Environment.call_later) == 0
    assert cost.calls_to(Environment.timeout) == 0

    def job():
        yield res.use(2.5 * BACKGROUND_SLICE_MS, background=True)

    env.process(job())
    while env.peek() < _INF:
        popped.append(type(env._queue.heap[0][2]))
        env.step()
    assert Timeout not in popped
