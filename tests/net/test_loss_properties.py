"""Property tests: the datagram transport under random loss.

Invariant: ``request()`` always terminates — either with the reply or
with :class:`TransportTimeout` after a bounded number of attempts —
regardless of the loss rate.  Silence-forever is not an outcome.
"""

from hypothesis import given, settings, strategies as st

from repro.net import (
    DatagramTransport,
    Internetwork,
    Service,
    StreamTransport,
    TransportTimeout,
)
from repro.sim import ConstantLatency, Environment


class Echo(Service):
    """Replies immediately."""

    def handle(self, datagram, responder):
        responder(("ok", datagram.payload), 16)
        return
        yield


class Slow(Service):
    """Replies after 10 ms of work."""

    def __init__(self, env):
        self.env = env

    def handle(self, datagram, responder):
        yield self.env.timeout(10.0)
        responder(("ok", datagram.payload), 16)


@given(
    st.floats(min_value=0.0, max_value=0.9),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40, deadline=None)
def test_request_always_terminates_under_loss(drop, retries, seed):
    env = Environment(seed=seed)
    net = Internetwork(env)
    seg = net.add_segment(latency=ConstantLatency(1.0))
    seg.set_loss(drop)
    client = net.add_host("c", seg)
    server = net.add_host("s", seg)
    ep = server.bind(9000, Echo())
    udp = DatagramTransport(net, retries=retries, retry_timeout_ms=20)

    def caller():
        try:
            reply = yield from udp.request(client, ep, "x")
        except TransportTimeout:
            return "timeout"
        return reply

    outcome = env.run(until=env.process(caller()))
    assert outcome == ("ok", "x") or outcome == "timeout"
    # Bounded attempts: elapsed time cannot exceed the retry budget
    # plus one full exchange.
    assert env.now <= (retries + 1) * 20 + 10
    env.run()  # drain stragglers cleanly


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=25, deadline=None)
def test_zero_loss_always_succeeds(seed):
    env = Environment(seed=seed)
    net = Internetwork(env)
    seg = net.add_segment(latency=ConstantLatency(1.0))
    client = net.add_host("c", seg)
    server = net.add_host("s", seg)
    ep = server.bind(9000, Echo())
    udp = DatagramTransport(net, retries=0, retry_timeout_ms=50)

    def caller():
        reply = yield from udp.request(client, ep, seed)
        return reply

    assert env.run(until=env.process(caller())) == ("ok", seed)


@given(st.floats(min_value=0.05, max_value=0.5), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=20, deadline=None)
def test_retries_only_happen_under_loss_or_failure(drop, seed):
    env = Environment(seed=seed)
    net = Internetwork(env)
    seg = net.add_segment(latency=ConstantLatency(1.0))
    seg.set_loss(drop)
    client = net.add_host("c", seg)
    server = net.add_host("s", seg)
    ep = server.bind(9000, Echo())
    udp = DatagramTransport(net, retries=10, retry_timeout_ms=20)
    timeouts = []

    def caller():
        for _ in range(5):
            try:
                yield from udp.request(client, ep, "x")
            except TransportTimeout:
                # Losing all 11 attempts is ~4% per request at
                # drop=0.5 — a legitimate outcome, not a violation.
                timeouts.append(1)

    env.run(until=env.process(caller()))
    retransmits = env.stats.counters().get("net.udp.retransmits", 0)
    delivered = env.stats.counters().get("net.udp.delivered", 0)
    assert delivered >= 5 - len(timeouts)
    # Bounded by the retry budget, and a timed-out request must have
    # burned its whole budget first.
    assert 10 * len(timeouts) <= retransmits <= 5 * 10


def test_a_reply_is_as_lossy_as_its_request():
    """With no retransmission, an exchange over a segment losing each
    datagram with probability p is lost with probability 1 - (1 - p)^2:
    the request or the reply.  A wire that spared replies would read p."""
    drop, trials = 0.2, 2_000
    env = Environment(seed=58)
    net = Internetwork(env)
    seg = net.add_segment(latency=ConstantLatency(1.0))
    seg.set_loss(drop)
    client = net.add_host("c", seg)
    server = net.add_host("s", seg)
    ep = server.bind(9000, Echo())
    udp = DatagramTransport(net, retries=0, retry_timeout_ms=20)
    lost = []

    def caller():
        for _ in range(trials):
            try:
                yield from udp.request(client, ep, "x")
            except TransportTimeout:
                lost.append(1)

    env.run(until=env.process(caller()))
    share = len(lost) / trials
    expected = 1 - (1 - drop) ** 2  # 0.36, against 0.20 for requests alone
    assert abs(share - expected) < 0.03, share
    # the server handled every request that reached it, so the replies
    # lost are the deliveries that went unanswered
    delivered = env.stats.counters()["net.udp.delivered"]
    assert abs(delivered / trials - (1 - drop)) < 0.03
    assert trials - len(lost) < delivered


def test_a_partition_formed_mid_exchange_fails_a_stream():
    """A stream is reliable against random loss, but a partition that
    forms while its request is in flight stops the reply: the call times
    out instead of answering across the split."""
    env = Environment(seed=58)
    net = Internetwork(env)
    seg = net.add_segment(latency=ConstantLatency(1.0))
    seg.set_loss(0.5)  # a stream draws no loss decision: it still answers
    client = net.add_host("c", seg)
    server = net.add_host("s", seg)
    ep = server.bind(9000, Slow(env))
    tcp = StreamTransport(net)

    def caller():
        reply = yield from tcp.request(client, ep, "x", timeout_ms=100)
        assert reply == ("ok", "x")
        call = tcp.request(client, ep, "y", timeout_ms=100)
        yield env.timeout(6.0)  # delivered, and the server is working
        seg.partition([client], [server])
        try:
            yield call
        except TransportTimeout:
            return env.now
        return "answered across the partition"

    started = env.now
    outcome = env.run(until=env.process(caller()))
    assert isinstance(outcome, float) and outcome - started > 100.0
    # severed, not lost at random: the partition counts no drop
    assert "net.partition.drops" not in env.stats.counters()
