"""What one warm ``FindNSM`` costs the host and the kernel, pinned.

A hit hands back what the caches hold: nothing on the path re-parses a
record, re-validates an address or re-names a counter, and no generator
frame sits between the frame that yields a hit's two charges and the
cache.  Host cost is counted, not timed — ``sys.setprofile`` ``call``
events (Python frames entered or resumed) per call, with an upper bound
that leaves headroom between interpreter versions — so the test says the
same thing on any machine.  Simulated cost must not move at all: the
heap entries per call are the path's CPU charges (probe + copy per
mapping, plus the library's fixed one) and are pinned exactly.
"""

import collections
import functools
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


def find_nsm(policies):
    def make(testbed):
        hns = testbed.make_hns(testbed.client, policies=policies)
        return functools.partial(hns.find_nsm, NAME, "HRPCBinding")

    return make


def lookup_hit(testbed):
    """Mapping 1 on a default meta store: one ``BindResolver.lookup``
    hit, the read ``update_storm``'s readers make."""
    store = testbed.make_metastore(testbed.client)
    return functools.partial(store.context_to_name_service, NAME.context)


def warm_cost(make):
    """(python calls, C calls, heap entries) per warm call of ``make``'s."""
    testbed = build_testbed(seed=0)
    env = testbed.env
    call = make(testbed)
    events = collections.Counter()

    def profile(_frame, event, _arg):
        events[event] += 1

    def driver():
        for _ in range(WARM_UPS):
            yield from call()
        outer = sys.getprofile()
        before = env.kernel_counters()["sim.kernel.events_scheduled"]
        sys.setprofile(profile)
        try:
            for _ in range(CALLS):
                yield from call()
        finally:
            sys.setprofile(outer)
        return env.kernel_counters()["sim.kernel.events_scheduled"] - before

    heap_entries = env.run(until=env.process(driver()))
    return events["call"] / CALLS, events["c_call"] / CALLS, heap_entries / CALLS


@pytest.mark.parametrize(
    "make, max_python_calls, heap_entries",
    [
        # 130.7 / 61.4 C calls; 301 / 133 before the hit path stopped
        # re-deriving, 231 while each of its 9 charges was a generator
        # frame, 191.7 while four to six frames resumed per charge
        pytest.param(find_nsm(FAST_PATH), 135, 9, id="fast-path"),
        # 244.9 / 90.5; 426 / 145, then 366, then 307.9
        pytest.param(find_nsm(PolicySet.default()), 275, 13, id="six-mappings"),
        # 30.0 / 13.0 (42.0 while the probe was a generator of its own)
        pytest.param(lookup_hit, 33, 2, id="lookup-hit"),
    ],
)
def test_warm_find_nsm_host_and_kernel_budget(make, max_python_calls, heap_entries):
    python_calls, c_calls, entries = warm_cost(make)
    print(
        f"warm call: {python_calls:.1f} python calls, {c_calls:.1f} C calls, "
        f"{entries:g} heap entries"
    )
    assert entries == heap_entries
    assert python_calls <= max_python_calls
