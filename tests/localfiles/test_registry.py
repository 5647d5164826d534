"""Local binding file mechanics."""

import pytest

from repro.localfiles import BindingFileEntry, LocalBindingFile, Replicator
from repro.net import Internetwork
from repro.sim import Environment


@pytest.fixture
def world():
    env = Environment(seed=2)
    net = Internetwork(env)
    a = net.add_host("a")
    b = net.add_host("b")
    return env, net, a, b


def entry(service="svc", host="h1", port=100):
    return BindingFileEntry(service, host, "10.0.0.1", port)


def test_entry_line_format():
    e = entry()
    assert e.line().split("\t") == ["svc", "h1", "10.0.0.1", "100", "sunrpc"]
    assert e.size_bytes == len(e.line()) + 1


def test_lookup_charges_disk_and_parse(world):
    env, net, a, b = world
    f = LocalBindingFile(a)
    f.install(entry())

    def scenario():
        e = yield from f.lookup("svc", "h1")
        return e, env.now

    e, when = env.run(until=env.process(scenario()))
    assert e.port == 100
    assert when > 30  # at least the disk access


def test_lookup_missing_raises_after_scan(world):
    env, net, a, b = world
    f = LocalBindingFile(a)

    def scenario():
        with pytest.raises(KeyError):
            yield from f.lookup("ghost", "h")
        return env.now

    when = env.run(until=env.process(scenario()))
    assert when > 30  # the scan happened anyway


def test_publish_reaches_remote_replica(world):
    env, net, a, b = world
    fa, fb = LocalBindingFile(a), LocalBindingFile(b)
    rep = Replicator(net, None, [fa, fb])
    updated = env.run(until=env.process(rep.publish(a, entry())))
    assert updated == 2
    assert fa.version == 1 and fb.version == 1
    assert env.now > 0  # network + disk time was charged
