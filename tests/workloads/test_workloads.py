"""Workload generation: Zipf locality and query streams."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import HNSName
from repro.sim import Environment
from repro.workloads import QueryWorkload, ZipfDistribution


# ----------------------------------------------------------------------
# Zipf
# ----------------------------------------------------------------------
def test_zipf_validation():
    with pytest.raises(ValueError):
        ZipfDistribution(0)
    with pytest.raises(ValueError):
        ZipfDistribution(5, s=-1)


def probabilities(z):
    """P(rank) for each rank, read off the sampler's cumulative table."""
    edges = [0.0, *z._cumulative]
    return [b - a for a, b in zip(edges, edges[1:])]


def unique_fraction(events):
    """Fraction of distinct (name, query class) pairs: cold misses."""
    return len({(str(e.hns_name), e.query_class) for e in events}) / len(events)


def test_zipf_probabilities_sum_to_one():
    z = ZipfDistribution(10, s=1.2)
    assert len(probabilities(z)) == 10
    assert sum(probabilities(z)) == pytest.approx(1.0)


def test_zipf_rank_zero_most_popular():
    z = ZipfDistribution(20, s=1.0)
    probs = probabilities(z)
    assert probs == sorted(probs, reverse=True)
    assert probs[0] > 3 * probs[9]


def test_zipf_s_zero_is_uniform():
    z = ZipfDistribution(4, s=0.0)
    assert probabilities(z) == pytest.approx([0.25] * 4)


def test_zipf_sampling_matches_distribution():
    env = Environment(seed=4)
    rng = env.rng.stream("z")
    z = ZipfDistribution(5, s=1.0)
    counts = [0] * 5
    for _ in range(5000):
        counts[z.sample(rng)] += 1
    assert counts[0] > counts[1] > counts[4]


@given(st.integers(min_value=1, max_value=50), st.floats(min_value=0, max_value=3))
@settings(max_examples=30, deadline=None)
def test_zipf_samples_in_range(n, s):
    env = Environment(seed=1)
    z = ZipfDistribution(n, s)
    rng = env.rng.stream("p")
    assert all(0 <= z.sample(rng) < n for _ in range(50))


# ----------------------------------------------------------------------
# QueryWorkload
# ----------------------------------------------------------------------
def population(k=5):
    return [
        (HNSName("BIND-cs", f"host{i}.cs.washington.edu"), "HostAddress", {})
        for i in range(k)
    ]


def test_workload_validation():
    env = Environment()
    with pytest.raises(ValueError):
        QueryWorkload(env, [])
    with pytest.raises(ValueError):
        QueryWorkload(env, population(), mean_interarrival_ms=0)
    wl = QueryWorkload(env, population())
    with pytest.raises(ValueError):
        wl.generate(-1)


def test_workload_generates_ordered_events():
    env = Environment(seed=9)
    wl = QueryWorkload(env, population(), mean_interarrival_ms=100)
    events = wl.generate(50)
    assert len(events) == 50
    times = [e.at_ms for e in events]
    assert times == sorted(times)
    assert all(e.query_class == "HostAddress" for e in events)


def test_workload_is_deterministic_per_seed():
    def gen(seed):
        env = Environment(seed=seed)
        wl = QueryWorkload(env, population())
        return [(e.at_ms, str(e.hns_name)) for e in wl.generate(20)]

    assert gen(1) == gen(1)
    assert gen(1) != gen(2)


def test_workload_locality():
    """With strong Zipf, few distinct names dominate (cache-friendly)."""
    env = Environment(seed=3)
    wl = QueryWorkload(env, population(20), zipf_s=1.5)
    events = wl.generate(200)
    assert unique_fraction(events) < 0.2


def test_uniform_workload_has_higher_unique_fraction():
    env = Environment(seed=3)
    local = QueryWorkload(env, population(50), zipf_s=1.5, stream="a")
    uniform = QueryWorkload(env, population(50), zipf_s=0.0, stream="b")
    assert unique_fraction(uniform.generate(100)) > unique_fraction(local.generate(100))
