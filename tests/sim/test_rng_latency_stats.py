"""RNG determinism, latency models, stats primitives."""

import pytest

from repro.sim import ConstantLatency, Environment, UniformLatency
from repro.sim.rng import RngRegistry
from repro.sim.stats import Counter, Histogram


# ----------------------------------------------------------------------
# RNG
# ----------------------------------------------------------------------
def test_same_seed_same_streams():
    a, b = RngRegistry(7), RngRegistry(7)
    assert [a.stream("net").random() for _ in range(5)] == [
        b.stream("net").random() for _ in range(5)
    ]


def test_different_names_are_independent():
    reg = RngRegistry(7)
    net = [reg.stream("net").random() for _ in range(5)]
    disk = [reg.stream("disk").random() for _ in range(5)]
    assert net != disk


def test_new_stream_does_not_perturb_existing():
    a, b = RngRegistry(7), RngRegistry(7)
    a.stream("net").random()  # draw once
    b.stream("other")  # create an unrelated stream first
    b.stream("net").random()
    assert a.stream("net").random() == b.stream("net").random()


def test_fork_is_deterministic_and_distinct():
    reg = RngRegistry(3)
    f1, f2 = reg.fork("child"), reg.fork("child")
    assert f1.seed == f2.seed
    assert f1.seed != reg.seed
    assert reg.fork("other").seed != f1.seed


# ----------------------------------------------------------------------
# Latency models
# ----------------------------------------------------------------------
def test_constant_latency():
    model = ConstantLatency(10, per_byte_ms=0.01)
    rng = RngRegistry(0).stream("x")
    assert model.sample(rng, 100) == pytest.approx(11.0)


def test_constant_latency_validation():
    with pytest.raises(ValueError):
        ConstantLatency(-1)


def test_uniform_latency_bounds_and_mean():
    model = UniformLatency(5, 15)
    rng = RngRegistry(1).stream("x")
    samples = [model.sample(rng) for _ in range(200)]
    assert all(5 <= s <= 15 for s in samples)
    assert 9.0 < sum(samples) / len(samples) < 11.0


def test_uniform_latency_validation():
    with pytest.raises(ValueError):
        UniformLatency(10, 5)


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------
def test_counter_monotonic():
    c = Counter("calls")
    c.increment()
    c.increment(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.increment(-1)


def test_histogram_buckets():
    h = Histogram("lat", [10, 20, 30])
    for v in (5, 10, 15, 25, 100):
        h.record(v)
    assert h.total == 5
    labels_counts = dict(h.buckets())
    assert labels_counts["<= 10"] == 2
    assert labels_counts["<= 20"] == 1
    assert labels_counts["<= 30"] == 1
    assert labels_counts["> 30"] == 1


def test_histogram_validation():
    with pytest.raises(ValueError):
        Histogram("bad", [])
    with pytest.raises(ValueError):
        Histogram("bad", [10, 5])


def test_stats_registry_scoped_to_environment():
    env1, env2 = Environment(), Environment()
    env1.stats.counter("x").increment()
    assert env2.stats.counter("x").value == 0
    assert env1.stats.counters() == {"x": 1}


def test_tracer_disabled_by_default():
    env = Environment()
    env.trace.emit("cat", "hidden")
    assert env.trace.records == []
    env.trace.enabled = True
    env.trace.emit("cat", "shown", key=1)
    assert len(env.trace.records) == 1
    rec = env.trace.records[0]
    assert rec.category == "cat" and rec.data == {"key": 1}
    assert "cat" in str(rec)
    assert env.trace.filter("cat") == [rec]
    assert env.trace.filter("other") == []
    env.trace.clear()
    assert env.trace.records == []
