"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure from the paper's
evaluation, prints a paper-vs-measured comparison (run with ``-s`` to
see it inline; values also land in ``benchmark.extra_info``), and
asserts the reproduction tolerance recorded in EXPERIMENTS.md.
"""

import pytest

from repro.core import HNSName
from repro.workloads import build_testbed

FIJI = HNSName("BIND-cs", "fiji.cs.washington.edu")
DLION = HNSName("CH-hcs", "dlion:hcs:uw")


def run(env, gen):
    return env.run(until=env.process(gen))


def timed(env, gen):
    """Run a process; return elapsed simulated ms."""
    start = env.now
    run(env, gen)
    return env.now - start


@pytest.fixture
def fresh_testbed():
    return build_testbed(seed=17)
