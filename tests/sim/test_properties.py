"""Property-based tests of kernel invariants."""

from hypothesis import given, settings, strategies as st

from repro.sim import Environment


@given(st.lists(st.floats(min_value=0, max_value=1e4), min_size=1, max_size=40))
@settings(max_examples=50, deadline=None)
def test_completion_times_match_delays(delays):
    """Each process finishes exactly at its own delay; clock ends at max."""
    env = Environment()
    completions = {}

    def proc(i, d):
        yield env.timeout(d)
        completions[i] = env.now

    for i, d in enumerate(delays):
        env.process(proc(i, d))
    env.run()
    for i, d in enumerate(delays):
        assert completions[i] == d
    assert env.now == max(delays)


@given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_clock_is_monotonic(delays):
    env = Environment()
    observed = []

    def proc(d):
        yield env.timeout(d)
        observed.append(env.now)
        yield env.timeout(d)
        observed.append(env.now)

    for d in delays:
        env.process(proc(d))
    env.run()
    assert observed == sorted(observed)


@given(st.lists(st.floats(min_value=0.1, max_value=50), min_size=1, max_size=15))
@settings(max_examples=50, deadline=None)
def test_resource_throughput_bounded_by_capacity(services):
    """Total elapsed >= total work on the one unit (no magic parallelism)."""
    from repro.sim import Resource

    env = Environment()
    res = Resource(env)

    def user(s):
        yield res.use(s)

    for s in services:
        env.process(user(s))
    env.run()
    assert env.now >= sum(services) - 1e-9
    assert env.now >= max(services) - 1e-9


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30, deadline=None)
def test_environment_seed_reproducibility(seed):
    def draws(env):
        return [env.rng.stream("s").random() for _ in range(3)]

    assert draws(Environment(seed)) == draws(Environment(seed))
