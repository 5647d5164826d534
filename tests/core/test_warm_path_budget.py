"""What one warm ``FindNSM`` costs the host and the kernel, pinned.

A hit hands back what the caches hold: nothing on the path re-parses a
record, re-validates an address or re-names a counter.  Host cost is
counted, not timed — ``sys.setprofile`` ``call`` events (Python frames
entered or resumed) per call, with an upper bound that leaves headroom
between interpreter versions — so the test says the same thing on any
machine.  Simulated cost must not move at all: the heap entries per call
are the path's CPU charges (probe + copy per mapping, plus the library's
fixed one) and are pinned exactly.
"""

import collections
import sys

import pytest

from repro.core import HNSName
from repro.resolution import DEFAULT_RESOLUTION_POLICY, FastPathPolicy, PolicySet
from repro.workloads import build_testbed

WARM_UPS = 3
CALLS = 50
#: the name the perf ledger's ``core.probe.find_nsm_hit_us`` resolves
NAME = HNSName("BIND-cs", "fiji.cs.washington.edu")

FAST_PATH = PolicySet(
    resolution=DEFAULT_RESOLUTION_POLICY, fast_path=FastPathPolicy()
)


def warm_find_nsm_cost(policies):
    """(python calls, C calls, heap entries) per warm FindNSM."""
    testbed = build_testbed(seed=0)
    env = testbed.env
    hns = testbed.make_hns(testbed.client, policies=policies)
    events = collections.Counter()

    def profile(_frame, event, _arg):
        events[event] += 1

    def driver():
        for _ in range(WARM_UPS):
            yield from hns.find_nsm(NAME, "HRPCBinding")
        outer = sys.getprofile()
        before = env.kernel_counters()["sim.kernel.events_scheduled"]
        sys.setprofile(profile)
        try:
            for _ in range(CALLS):
                yield from hns.find_nsm(NAME, "HRPCBinding")
        finally:
            sys.setprofile(outer)
        return env.kernel_counters()["sim.kernel.events_scheduled"] - before

    heap_entries = env.run(until=env.process(driver()))
    return events["call"] / CALLS, events["c_call"] / CALLS, heap_entries / CALLS


@pytest.mark.parametrize(
    "policies, max_python_calls, heap_entries",
    [
        # 301 / 133 C calls before the hit path stopped re-deriving,
        # 231 while each of its 9 charges was a generator frame
        pytest.param(FAST_PATH, 205, 9, id="fast-path"),
        # 426 / 145, then 366
        pytest.param(PolicySet.default(), 330, 13, id="six-mappings"),
    ],
)
def test_warm_find_nsm_host_and_kernel_budget(
    policies, max_python_calls, heap_entries
):
    python_calls, c_calls, entries = warm_find_nsm_cost(policies)
    print(
        f"warm FindNSM: {python_calls:.1f} python calls, {c_calls:.1f} C calls, "
        f"{entries:g} heap entries"
    )
    assert entries == heap_entries
    assert python_calls <= max_python_calls
