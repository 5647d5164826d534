"""Reproducibility: the whole stack is deterministic per seed."""

from repro.core import Arrangement, HNSName
from repro.workloads import build_stack, build_testbed

FIJI = HNSName("BIND-cs", "fiji.cs.washington.edu")


def measure(seed):
    testbed = build_testbed(seed=seed)
    stack = build_stack(testbed, Arrangement.ALL_REMOTE)
    env = testbed.env

    def timed():
        start = env.now
        binding = yield from stack.importer.import_binding("DesiredService", FIJI)
        return env.now - start, str(binding.endpoint)

    stack.flush_all_caches()
    a = env.run(until=env.process(timed()))
    b = env.run(until=env.process(timed()))
    return a, b, env.now, env.stats.counters()


def test_identical_seeds_identical_runs():
    assert measure(42) == measure(42)


def test_different_seeds_same_results_same_structure():
    """Different seeds may shift timings (none here: the calibrated
    latency model is deterministic), but never results or counts."""
    a = measure(1)
    b = measure(2)
    assert a[0][1] == b[0][1]          # same binding
    assert a[3] == b[3]                # same operation counts


def test_report_is_stable():
    from repro.harness.report import table_3_1

    first = [(r.label, r.measured) for r in table_3_1().rows]
    second = [(r.label, r.measured) for r in table_3_1().rows]
    assert first == second
