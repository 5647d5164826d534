"""Transport broadcast + the decentralized locator built on it."""

import pytest

from repro.broadcast import BroadcastLocator, NameOwnerService
from repro.net import DatagramTransport, Internetwork, Service
from repro.sim import ConstantLatency, Environment


@pytest.fixture
def world():
    env = Environment(seed=77)
    net = Internetwork(env)
    seg = net.add_segment(latency=ConstantLatency(1.0, 0.0008))
    hosts = [net.add_host(f"h{i}", seg) for i in range(6)]
    udp = DatagramTransport(net)
    return env, net, seg, hosts, udp


def run(env, gen):
    return env.run(until=env.process(gen))


class CountingEcho(Service):
    def __init__(self):
        self.seen = 0

    def handle(self, datagram, responder):
        self.seen += 1
        responder(("echo", datagram.payload), 16)
        return
        yield


def test_broadcast_reaches_all_listeners(world):
    env, net, seg, hosts, udp = world
    services = [h.bind(4000, CountingEcho()) and h.service_at(4000) for h in hosts[1:]]
    replies = run(env, udp.broadcast(hosts[0], 4000, "ping", 16, wait_ms=50))
    assert len(replies) == 5
    assert all(s.seen == 1 for s in services)


def test_broadcast_skips_sender_and_unbound(world):
    env, net, seg, hosts, udp = world
    hosts[0].bind(4000, CountingEcho())  # sender itself: not delivered
    target = CountingEcho()
    hosts[1].bind(4000, target)
    replies = run(env, udp.broadcast(hosts[0], 4000, "x", wait_ms=50))
    assert len(replies) == 1
    assert hosts[0].service_at(4000).seen == 0


def test_broadcast_first_only_returns_early(world):
    env, net, seg, hosts, udp = world
    for h in hosts[1:]:
        h.bind(4000, CountingEcho())
    start = env.now
    replies = run(
        env, udp.broadcast(hosts[0], 4000, "x", wait_ms=500, first_only=True)
    )
    assert len(replies) == 1
    assert env.now - start < 500  # did not sit out the whole window


def test_broadcast_from_down_host_rejected(world):
    env, net, seg, hosts, udp = world
    hosts[0].crash()
    from repro.net import HostDown

    def scenario():
        with pytest.raises(HostDown):
            yield from udp.broadcast(hosts[0], 4000, "x")
        return "done"

    assert run(env, scenario()) == "done"


def test_broadcast_down_receivers_silent(world):
    env, net, seg, hosts, udp = world
    for h in hosts[1:]:
        h.bind(4000, CountingEcho())
    hosts[2].crash()
    hosts[3].crash()
    replies = run(env, udp.broadcast(hosts[0], 4000, "x", wait_ms=50))
    assert len(replies) == 3


# ----------------------------------------------------------------------
# The locator
# ----------------------------------------------------------------------
def test_locator_finds_owner(world):
    env, net, seg, hosts, udp = world
    owners = [NameOwnerService(h) for h in hosts[1:]]
    owners[2].own("printservice", port=6001)
    locator = BroadcastLocator(hosts[0], udp)
    answer = run(env, locator.locate("PrintService"))
    assert answer.owner == hosts[3].name
    assert answer.address == str(hosts[3].address)
    # Field values are stringified on the wire (see broadcast/messages.py).
    assert answer.data == {"port": "6001"}


def test_locator_no_owner_raises(world):
    env, net, seg, hosts, udp = world
    for h in hosts[1:]:
        NameOwnerService(h)
    locator = BroadcastLocator(hosts[0], udp, wait_ms=40)

    def scenario():
        with pytest.raises(LookupError):
            yield from locator.locate("ghost")
        return env.now

    when = run(env, scenario())
    assert when >= 40  # waited the full window before giving up


def test_every_host_pays_for_every_query(world):
    """The broadcast tax: all owners examine all queries."""
    env, net, seg, hosts, udp = world
    owners = [NameOwnerService(h) for h in hosts[1:]]
    owners[0].own("svc-a")
    locator = BroadcastLocator(hosts[0], udp)
    for _ in range(4):
        run(env, locator.locate("svc-a"))
    assert all(o.examined == 4 for o in owners)


def test_own_disown(world):
    env, net, seg, hosts, udp = world
    owner = NameOwnerService(hosts[1])
    owner.own("X", port=1)
    assert owner.disown("X")
    assert not owner.disown("X")
    with pytest.raises(ValueError):
        owner.own("")
    with pytest.raises(ValueError):
        BroadcastLocator(hosts[0], udp, wait_ms=0)


def test_ownership_moves_with_service(world):
    """Decentralized interpretation: relocation needs no registry update."""
    env, net, seg, hosts, udp = world
    a = NameOwnerService(hosts[1])
    b = NameOwnerService(hosts[2])
    a.own("mobile")
    locator = BroadcastLocator(hosts[0], udp)
    assert run(env, locator.locate("mobile")).owner == hosts[1].name
    a.disown("mobile")
    b.own("mobile")
    assert run(env, locator.locate("mobile")).owner == hosts[2].name
