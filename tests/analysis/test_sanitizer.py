"""Interleaving sanitizer: happens-before reconstruction and hazards."""

import types

import pytest

from repro.analysis import InterleavingSanitizer
from repro.analysis.perturb import monitored
from repro.discovery.beacon import OBSERVE_COST_MS
from repro.net import DatagramTransport, Internetwork, Service
from repro.resolution import DiscoveryPolicy
from repro.sim import ConstantLatency, Environment, Resource
from repro.sim.kernel import STANDING_MS
from repro.workloads.adhoc import build_adhoc_world


class Box:
    def __init__(self):
        self.value = 0


def test_timeout_racing_writer_and_reader_is_flagged():
    """Two processes meeting at the same instant via timeouts only."""
    env = Environment(seed=0)
    sanitizer = InterleavingSanitizer.attach(env)
    box = sanitizer.watch(Box(), "box")

    def writer():
        yield env.timeout(5)
        box.value = 1

    def reader():
        yield env.timeout(5)
        _ = box.value

    env.process(writer(), name="writer")
    env.process(reader(), name="reader")
    env.run()

    hazards = sanitizer.report()
    assert len(hazards) == 1
    hazard = hazards[0]
    assert (hazard.label, hazard.field) == ("box", "value")
    assert {hazard.first.kind, hazard.second.kind} == {"w", "r"}
    description = hazard.describe()
    assert "box.value" in description
    assert "unordered" in description


def test_event_synchronized_pair_is_clean():
    """succeed() -> resume creates a happens-before edge."""
    env = Environment(seed=0)
    sanitizer = InterleavingSanitizer.attach(env)
    box = sanitizer.watch(Box(), "box")
    gate = env.event()

    def writer():
        yield env.timeout(5)
        box.value = 1
        gate.succeed(None)

    def reader():
        yield gate
        _ = box.value

    env.process(writer(), name="writer")
    env.process(reader(), name="reader")
    env.run()

    assert sanitizer.report() == []


def test_program_order_within_one_process_is_clean():
    env = Environment(seed=0)
    sanitizer = InterleavingSanitizer.attach(env)
    box = sanitizer.watch(Box(), "box")

    def proc():
        box.value = 1
        yield env.timeout(5)
        _ = box.value

    env.process(proc(), name="solo")
    env.run()
    assert sanitizer.report() == []


def test_concurrent_reads_are_not_a_hazard():
    env = Environment(seed=0)
    sanitizer = InterleavingSanitizer.attach(env)
    box = sanitizer.watch(Box(), "box")

    def reader():
        yield env.timeout(5)
        _ = box.value

    env.process(reader(), name="r1")
    env.process(reader(), name="r2")
    env.run()
    assert sanitizer.report() == []


def test_setup_accesses_outside_processes_never_race():
    env = Environment(seed=0)
    sanitizer = InterleavingSanitizer.attach(env)
    box = sanitizer.watch(Box(), "box")
    box.value = 7  # setup write, no current segment

    def reader():
        yield env.timeout(1)
        _ = box.value

    env.process(reader(), name="reader")
    env.run()
    assert sanitizer.report() == []


def test_watched_proxy_records_item_and_len_accesses():
    env = Environment(seed=0)
    sanitizer = InterleavingSanitizer.attach(env)
    table = sanitizer.watch({}, "table")

    def writer():
        yield env.timeout(5)
        table["k"] = 1

    def reader():
        yield env.timeout(5)
        _ = "k" in table
        _ = len(table)

    env.process(writer(), name="writer")
    env.process(reader(), name="reader")
    env.run()

    hazards = sanitizer.report()
    assert [h.field for h in hazards] == ["['k']"]


def test_attach_refuses_a_second_monitor_and_detach_restores():
    env = Environment(seed=0)
    sanitizer = InterleavingSanitizer.attach(env)
    with pytest.raises(RuntimeError, match="already has a monitor"):
        InterleavingSanitizer.attach(env)
    sanitizer.detach()
    assert env.monitor is None
    InterleavingSanitizer.attach(env)


def test_instrumented_run_takes_the_same_trajectory():
    """The sanitizer is passive: digests match a bare run exactly."""
    from repro.analysis.determinism import run_digest

    def trajectory(with_monitor):
        env = Environment(seed=1)
        env.trace.enabled = True
        if with_monitor:
            InterleavingSanitizer.attach(env)

        def proc(name):
            rng = env.rng.stream(f"jitter.{name}")
            for _ in range(3):
                yield env.timeout(1 + rng.random())
                env.trace.emit("test", f"tick {name}", t=env.now)

        env.process(proc("a"), name="a")
        env.process(proc("b"), name="b")
        env.run()
        return run_digest(env)

    assert trajectory(False) == trajectory(True)


# ----------------------------------------------------------------------
# Segments and events that nest: inline starts, inline triggers, timed
# callbacks.  Fewer heap entries must not mean fewer edges -- or more.
# ----------------------------------------------------------------------
def test_outer_access_after_an_inline_start_is_still_recorded():
    env = Environment(seed=0)
    sanitizer = InterleavingSanitizer.attach(env)
    box = sanitizer.watch(Box(), "box")

    def child():
        yield env.timeout(1)

    def outer():
        yield env.timeout(5)
        env.process(child(), name="child", inline=True)
        box.value = 1  # the child's segment_end must not blind this

    def rival():
        yield env.timeout(5)
        box.value = 2

    env.process(outer(), name="outer")
    env.process(rival(), name="rival")
    env.run()

    (hazard,) = sanitizer.report()
    writers = {hazard.first.segment.process_name, hazard.second.segment.process_name}
    assert writers == {"outer", "rival"}
    outer_access = min((hazard.first, hazard.second), key=lambda a: a.segment.seg_id)
    assert str(outer_access.segment) == "outer#1@5ms"


def test_inline_started_segment_is_ordered_after_its_starter():
    env = Environment(seed=0)
    sanitizer = InterleavingSanitizer.attach(env)
    box = sanitizer.watch(Box(), "box")

    def child():
        _ = box.value
        yield env.timeout(1)
        _ = box.value

    def outer():
        box.value = 1
        env.process(child(), name="child", inline=True)
        yield env.timeout(1)

    env.process(outer(), name="outer")
    env.run()
    assert sanitizer.report() == []


def test_a_queued_charge_is_ordered_after_the_release_that_started_its_hold():
    """The resource, not the claimant, starts a queued charge's hold: the
    holder's release schedules it and its end resumes the claimant, with
    no segment of the claimant in between.  That is still one causal
    chain — and only a chain: two claimants handed units at the same
    instant are ordered after their own predecessors, not each other."""
    env = Environment(seed=0)
    sanitizer = InterleavingSanitizer.attach(env)
    box = sanitizer.watch(Box(), "box")
    unit = Resource(env)

    def holder():
        box.value = 1
        yield unit.use(10)  # its end is the release, in no segment

    def claimant():
        yield env.timeout(1)
        yield unit.use(5)  # queued until t=10, over at t=15
        _ = box.value

    def by_hand():
        yield env.timeout(2)
        req = unit.request()  # queued behind the claimant
        yield req
        box.other = 2
        req.release()  # the release is in this segment

    def last():
        yield env.timeout(3)
        yield unit.use(1)
        _ = box.other

    for body in (holder, claimant, by_hand, last):
        env.process(body(), name=body.__name__)
    env.run()
    assert env.now == 16.0
    assert sanitizer.report() == []

    env = Environment(seed=0)
    sanitizer = InterleavingSanitizer.attach(env)
    box = sanitizer.watch(Box(), "box")
    pair = Resource(env, capacity=2)

    def first(tag):
        yield pair.use(10)

    def second(tag):
        yield env.timeout(1)
        yield pair.use(5)
        box.value = tag

    for tag in ("a", "b"):
        env.process(first(tag), name=f"first-{tag}")
        env.process(second(tag), name=f"second-{tag}")
    env.run()
    (hazard,) = sanitizer.report()
    assert {hazard.first.kind, hazard.second.kind} == {"w"}
    assert hazard.first.time == hazard.second.time == 15.0
    assert {
        hazard.first.segment.process_name, hazard.second.segment.process_name
    } == {"second-a", "second-b"}


def _small_net(env):
    net = Internetwork(env)
    segment = net.add_segment(latency=ConstantLatency(2.0))
    hosts = [net.add_host(f"h{i}", segment) for i in range(4)]
    return net, hosts, DatagramTransport(net)


def _box_service(box):
    """A handler that writes the payload into a watched box on arrival."""

    class BoxService(Service):
        def handle(self, datagram, responder):
            box.value = datagram.payload
            responder("ack", 16)
            return
            yield

    return BoxService()


def test_request_handler_reply_and_resumption_stay_one_ordered_chain():
    """Client write -> handler write -> (reply trip) -> client read:
    message passing is synchronization, with or without processes per hop."""
    env = Environment(seed=0)
    sanitizer = InterleavingSanitizer.attach(env)
    box = sanitizer.watch(Box(), "box")
    net, hosts, udp = _small_net(env)
    endpoint = hosts[1].bind(9000, _box_service(box))

    def client():
        box.value = "before"
        yield from udp.request(hosts[0], endpoint, "from-handler", 32)
        assert box.value == "from-handler"

    env.run(until=env.process(client(), name="client"))
    assert len(sanitizer._accesses[("box", "value")]) == 3
    assert sanitizer.report() == []


def test_broadcast_handlers_are_ordered_after_the_broadcaster_not_each_other():
    env = Environment(seed=0)
    sanitizer = InterleavingSanitizer.attach(env)
    box = sanitizer.watch(Box(), "box")
    net, hosts, udp = _small_net(env)
    for host in hosts[1:]:
        host.bind(4000, _box_service(box))

    def broadcaster():
        box.value = "asked"
        yield from udp.broadcast(hosts[0], 4000, "answer", 16, wait_ms=20)

    env.run(until=env.process(broadcaster(), name="asker"))
    hazards = sanitizer.report()
    # three handlers write at the same instant: every pair is a hazard,
    # none of them involves the broadcaster's earlier write
    assert len(hazards) == 3
    for hazard in hazards:
        assert hazard.first.segment.process_name == "udp.handler"
        assert hazard.second.segment.process_name == "udp.handler"
        assert hazard.first.time == hazard.second.time == 2.0


def test_handlers_delivered_at_one_instant_stay_unordered():
    """Two unicast deliveries landing together: the inline start links
    each handler to its own sender only, so the pair is still reported."""
    env = Environment(seed=0)
    sanitizer = InterleavingSanitizer.attach(env)
    box = sanitizer.watch(Box(), "box")
    net, hosts, udp = _small_net(env)
    endpoint = hosts[3].bind(9000, _box_service(box))

    def client(host, word):
        yield from udp.request(host, endpoint, word, 32)

    env.process(client(hosts[0], "a"), name="client-a")
    env.process(client(hosts[1], "b"), name="client-b")
    env.run()

    (hazard,) = sanitizer.report()
    assert {hazard.first.kind, hazard.second.kind} == {"w"}
    assert hazard.first.segment.process_name == "udp.handler"
    assert hazard.second.segment.process_name == "udp.handler"
    assert hazard.first.segment.process_key != hazard.second.segment.process_key


def test_perturbed_queue_still_shuffles_wire_timeouts_landing_together():
    """The cohort the scenario pass permutes is the wire Timeouts; no
    start event is needed for two same-instant deliveries to swap."""

    def delivery_order(perturb_seed):
        env = Environment(seed=0, perturb_seed=perturb_seed)
        net, hosts, udp = _small_net(env)
        order = []

        class Recorder(Service):
            def handle(self, datagram, responder):
                order.append(datagram.payload)
                return
                yield

        endpoint = hosts[3].bind(9000, Recorder())
        for index, host in enumerate(hosts[:3]):
            for copy in range(3):
                env.process(udp.send(host, endpoint, (index, copy), 32))
        env.run()
        assert env.now == 2.0
        return order

    fifo = delivery_order(None)
    assert fifo == sorted(fifo)
    shuffled = {tuple(delivery_order(seed)) for seed in range(6)}
    assert all(sorted(order) == fifo for order in shuffled)
    assert len(shuffled) > 1 and tuple(fifo) not in shuffled


def test_perturbed_queue_still_shuffles_standing_timers_armed_together():
    """Under a perturbation seed no timer waits in a FIFO lane: two
    leases armed at one instant with one delay are a cohort the
    scenario pass must be able to swap."""

    def expiry_order(perturb_seed):
        env = Environment(seed=0, perturb_seed=perturb_seed)
        order = []
        for lease in range(4):
            env.call_later(STANDING_MS, lambda _t, lease=lease: order.append(lease))
        assert bool(env._lanes) == (perturb_seed is None)
        env.run()
        assert env.now == STANDING_MS
        return tuple(order)

    assert expiry_order(None) == (0, 1, 2, 3)
    shuffled = {expiry_order(seed) for seed in range(6)}
    assert len(shuffled) > 1 and (0, 1, 2, 3) not in shuffled


def test_lane_promotion_is_invisible_to_the_sanitizer():
    """Promoting a lane's next timer is not a trigger, a resume or an
    access: two waiters woken at one instant through one lane are as
    unordered as through the heap (the race is still flagged), and a
    handover ordered by an event stays ordered."""

    def hazards(synchronised):
        env = Environment(seed=0)
        sanitizer = InterleavingSanitizer.attach(env)
        box = sanitizer.watch(Box(), "box")
        gate = env.event()

        def writer():
            yield env.timeout(STANDING_MS)
            box.value = 1
            gate.succeed(None)

        def reader():
            lease = env.timeout(STANDING_MS)  # behind the writer's, in its lane
            if synchronised:
                yield gate
            yield lease
            _ = box.value

        env.process(writer(), name="writer")
        env.process(reader(), name="reader")
        assert env.monitor is sanitizer
        env.run()
        assert env.now == STANDING_MS and not env._lanes
        return sanitizer.report()

    assert hazards(synchronised=True) == []
    (hazard,) = hazards(synchronised=False)
    assert (hazard.label, hazard.field) == ("box", "value")


# ----------------------------------------------------------------------
# Callbacks that run in no process (call_later, a charge's) are not
# set-up code: what they touch is recorded, in a segment of their own.
# ----------------------------------------------------------------------
def test_a_timed_callbacks_write_races_a_sleeper_and_orders_what_it_wakes():
    env = Environment(seed=0)
    sanitizer = InterleavingSanitizer.attach(env)
    box = sanitizer.watch(Box(), "box")
    gate = env.event()

    def write_then_open(_timeout):
        box.value = 1
        gate.succeed(None)

    def scheduler():
        box.value = 0  # before the callback it schedules, in every schedule
        env.call_later(5, write_then_open)
        yield env.timeout(9)
        _ = box.value  # after it only by the clock

    def sleeper():
        yield env.timeout(5)
        _ = box.value

    def waiter():
        yield gate
        _ = box.value

    for body in (scheduler, sleeper, waiter):
        env.process(body(), name=body.__name__)
    env.run()

    # the callback is after the segment that scheduled it and before the
    # one it woke; against a sleeper, or its own scheduler's later read,
    # only the clock orders it
    assert {
        (h.first.kind, str(h.first.segment), h.second.kind, str(h.second.segment))
        for h in sanitizer.report()
    } == {
        ("w", "scheduler#0@0ms", "r", "sleeper#1@5ms"),
        ("w", "callback#0@5ms", "r", "sleeper#1@5ms"),
        ("w", "callback#0@5ms", "r", "scheduler#1@9ms"),
    }


def test_two_callbacks_one_segment_scheduled_are_not_each_others_program_order():
    env = Environment(seed=0)
    sanitizer = InterleavingSanitizer.attach(env)
    box = sanitizer.watch(Box(), "box")

    def write(timeout):
        box.value = timeout._value

    def scheduler():
        env.call_later(5, write, "a")
        env.call_later(5, write, "b")
        yield env.timeout(1)

    env.process(scheduler(), name="scheduler")
    env.run()
    (hazard,) = sanitizer.report()
    assert {hazard.first.kind, hazard.second.kind} == {"w"}
    assert hazard.first.segment.process_name == "callback"
    assert hazard.first.segment.process_key != hazard.second.segment.process_key


def _generator_listener(self, datagram, responder):
    """``BeaconService.handle`` for a beacon as a process: one charge,
    then absorb — the form the process-less one replaced."""
    yield self.host.cpu.compute(OBSERVE_COST_MS)
    if datagram.payload.verify(self.secret):
        self.cache.observe(datagram.payload)


@pytest.fixture
def beacon_absorbed_mid_probe():
    """``run(as_process)``: the hazards on host 0's view when its
    watchdog scans, parks probing a silent owner, and a live owner's
    beacon is absorbed meanwhile."""

    def run(as_process):
        policy = DiscoveryPolicy(beacon_period_ms=500.0, watchdog_multiplier=2.0)
        with monitored(InterleavingSanitizer):
            world = build_adhoc_world(3, policy=policy, host_count=3)
        env, sanitizer = world.env, world.env.monitor
        listener = world.beacons[0]
        if as_process:
            listener.handle = types.MethodType(_generator_listener, listener)
        view = listener.cache
        observe, entries = view.observe, view.entries

        def watched_observe(beacon):
            sanitizer.record_write("view", "_entries")
            return observe(beacon)

        def watched_entries():
            sanitizer.record_read("view", "_entries")
            return entries()

        view.observe, view.entries = watched_observe, watched_entries
        world.beacons[1].announce("silent", 9001)
        world.beacons[2].announce("live", 9002)
        env.run(until=1_200.0)
        world.hosts[1].crash()  # its entry lapses; the probe goes unanswered
        env.run(until=4_000.0)
        # both listeners probed it and gave up
        assert env.stats.counter("discovery.evict.probe_failed").value == 2
        return [
            (h.first.kind, str(h.first.segment), h.first.time,
             h.second.kind, h.second.segment.process_name, h.second.time)
            for h in sanitizer.report()
            if h.first.segment.process_name == "adhoc0.watchdog"
        ]

    return run


def test_a_beacon_absorbed_without_a_process_is_the_same_hazard(
    beacon_absorbed_mid_probe,
):
    as_process = beacon_absorbed_mid_probe(True)
    process_less = beacon_absorbed_mid_probe(False)
    # the scan's read against a beacon absorbed while the probe is out
    # (and against the host's own beacon loop, a process either way)
    assert any(
        hazard[0] == "r" and hazard[3:5] == ("w", "udp.handler")
        for hazard in as_process
    )
    assert process_less == [
        hazard[:4] + (hazard[4].replace("udp.handler", "callback"),) + hazard[5:]
        for hazard in as_process
    ]
