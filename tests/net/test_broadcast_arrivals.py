"""A broadcast's arrivals: one heap entry per arrival instant, exactly.

Consecutive targets whose delays are equal share one timed callback;
every delay draw, drop check, liveness check and delivery happens at
the instant and in the order it did with an entry per target.  The
jitter and drop tests compute what should land from a same-seeded copy
of the wire's streams, so they read the model, not a recording.
"""

from repro.net import DatagramTransport, Internetwork, Service
from repro.sim import ConstantLatency, Environment, UniformLatency

SEED = 11
SIZE = 16


class Recorder(Service):
    """Logs ``(payload, host, now)`` per delivery; answers nothing."""

    def __init__(self, host, log):
        self.host = host
        self.log = log

    def handle(self, datagram, responder):
        self.log.append((datagram.payload, self.host.name, self.host.env.now))


def world(latency, hosts=6, perturb_seed=None, **segment_kwargs):
    env = Environment(seed=SEED, perturb_seed=perturb_seed)
    net = Internetwork(env)
    segment = net.add_segment(latency=latency, **segment_kwargs)
    members = [net.add_host(f"h{i}", segment) for i in range(hosts)]
    log = []
    for host in members:
        host.bind(4000, Recorder(host, log))
    return env, segment, members, DatagramTransport(net), log


def processed(env):
    return env.kernel_counters()["sim.kernel.events_processed"]


def twin_stream(name):
    """The stream ``name`` as a fresh environment of the same seed draws it."""
    return Environment(seed=SEED).rng.stream(name)


def test_a_jittered_segment_keeps_an_entry_per_target():
    latency = UniformLatency(1.0, 3.0)
    env, segment, hosts, udp, log = world(latency)
    env.run()
    before = processed(env)
    env.process(udp.broadcast(hosts[0], 4000, "who", SIZE, wait_ms=50))
    env.run()
    jitter = twin_stream(f"ether:{segment.name}")
    expected = sorted(
        ("who", host.name, latency.sample(jitter, SIZE)) for host in hosts[1:]
    )
    assert len({when for _, _, when in expected}) == len(hosts) - 1
    # drawn in segment.hosts order, landed at those instants
    assert sorted(log) == expected
    assert log == sorted(log, key=lambda record: record[2])
    # the driver's start, a wire entry per target, the wait
    assert processed(env) - before == 1 + (len(hosts) - 1) + 1


def test_one_instant_lands_as_one_entry_admitted_by_drop_rule_and_liveness():
    env, segment, hosts, udp, log = world(
        ConstantLatency(2.0), hosts=8, drop_probability=0.3
    )
    h0, h1, h2, h3, h4 = hosts[:5]
    segment.partition([h0, h1, h2], [h3, h4])  # h5-h7 hear both sides
    env.call_later(1.0, lambda _: h2.crash())  # down before the packets land
    env.process(udp.broadcast(h0, 4000, "first", SIZE, wait_ms=50))
    env.process(udp.broadcast(h1, 4000, "second", SIZE, wait_ms=50))

    drops = twin_stream(f"ether-drop:{segment.name}")
    expected = []
    lost = 0
    for payload, sender in (("first", h0), ("second", h1)):
        arrivals = []
        for target in hosts:
            if target is sender or segment.crosses_partition(
                sender.address, target.address
            ):
                continue
            if drops.random() < segment.drop_probability:
                lost += 1
            elif target is not h2:
                arrivals.append((payload, target.name, 2.0))
        expected.append(arrivals)
    # the seed admits several from each and loses some at random
    assert [len(arrivals) for arrivals in expected] == [2, 2] and lost == 4

    env.run(until=1.5)
    landed = []
    while env.peek() <= 2.0:
        seen = len(log)
        env.step()
        if len(log) > seen:
            landed.append(log[seen:])
    # each broadcast's arrivals in one step, in host order, first first
    assert landed == expected
    assert env.stats.counters()["net.partition.drops"] == 2 + 2


def test_a_perturbed_run_keeps_an_entry_per_target():
    env, segment, hosts, udp, log = world(ConstantLatency(2.0), perturb_seed=3)
    env.run()
    before = processed(env)
    env.process(udp.broadcast(hosts[0], 4000, "who", SIZE, wait_ms=50))
    env.run()
    assert sorted(name for _, name, _ in log) == [host.name for host in hosts[1:]]
    assert {when for _, _, when in log} == {2.0}
    # the driver's start, a wire entry per target (so the shuffle can
    # reorder them), the wait
    assert processed(env) - before == 1 + (len(hosts) - 1) + 1

