"""What one warm ``FindNSM``, and one cold ``Import``, cost the host and
the kernel, pinned.

A hit hands back what the caches hold: nothing on the path re-parses a
record, re-validates an address, rebuilds the binding it returns or
re-names a counter, and no generator frame sits between the frame that
yields a hit's two charges and the cache.  Host cost is counted, not timed — ``sys.setprofile`` ``call``
events (Python frames entered or resumed) per call, with an upper bound
that leaves headroom between interpreter versions — so the test says the
same thing on any machine.  Simulated cost must not move at all: the
heap entries per call are the path's CPU charges (probe + copy per
mapping, plus the library's fixed one) and are pinned exactly.

A cold ``Import`` is Table 3.1's operation: every cache flushed first,
so each of its mappings and binding exchanges reaches a server — and no
server starts a process to answer.
"""

import collections
import functools
import gc
import sys

import pytest

from repro.core import Arrangement, HNSName
from repro.resolution import DEFAULT_RESOLUTION_POLICY, FastPathPolicy, PolicySet
from repro.workloads import build_stack, build_testbed

WARM_UPS = 3
CALLS = 50
COLD_CALLS = 10
#: the name the perf ledger's ``core.probe.find_nsm_hit_us`` resolves
NAME = HNSName("BIND-cs", "fiji.cs.washington.edu")

FAST_PATH = PolicySet(
    resolution=DEFAULT_RESOLUTION_POLICY, fast_path=FastPathPolicy()
)


def find_nsm(policies):
    def make(testbed):
        hns = testbed.make_hns(testbed.client, policies=policies)
        return None, functools.partial(hns.find_nsm, NAME, "HRPCBinding")

    return make


def lookup_hit(testbed):
    """Mapping 1 on a default meta store, the read ``update_storm``'s
    readers make: one hit in the meta store's mapping frame, which
    yields the probe and copy charges itself (no ``BindResolver.lookup``
    frame and no ``bind.lookup`` span beneath it)."""
    store = testbed.make_metastore(testbed.client)
    return None, functools.partial(store.context_to_name_service, NAME.context)


def cold_import(name_service, service, name):
    """The ledger's ``cold_import`` op: every cache flushed (unmeasured),
    then one ``Import`` through an all-local stack."""

    def make(testbed):
        stack = build_stack(testbed, Arrangement.ALL_LOCAL, name_service=name_service)
        return stack.flush_all_caches, functools.partial(
            stack.importer.import_binding, service, name
        )

    return make


def host_and_kernel_cost(make, calls=CALLS):
    """(Python calls, C calls, heap entries, handler processes) per call
    of ``make``'s, after ``WARM_UPS`` unmeasured ones.  ``make`` returns
    ``(prepare, call)``; ``prepare``, when given, runs unmeasured before
    every call."""
    testbed = build_testbed(seed=0)
    env = testbed.env
    prepare, call = make(testbed)
    events = collections.Counter()
    handlers = []
    start = env.process

    def counting_process(generator, name=None, inline=False):
        # a process a delivery starts is named for its transport
        if name is not None and name.endswith(".handler"):
            handlers.append(name)
        return start(generator, name, inline)

    def profile(_frame, event, _arg):
        events[event] += 1

    def driver():
        for _ in range(WARM_UPS):
            if prepare is not None:
                prepare()
            yield from call()
        outer = sys.getprofile()
        before = env.kernel_counters()["sim.kernel.events_scheduled"]
        handlers.clear()
        # Whether a collection lands in the window depends on what ran
        # before, and one runs whatever gc callbacks other libraries
        # registered (hypothesis does): counted calls, not the path's.
        collecting = gc.isenabled()
        gc.disable()
        sys.setprofile(profile)
        try:
            for _ in range(calls):
                if prepare is not None:
                    sys.setprofile(outer)
                    prepare()
                    sys.setprofile(profile)
                yield from call()
        finally:
            sys.setprofile(outer)
            if collecting:
                gc.enable()
        return env.kernel_counters()["sim.kernel.events_scheduled"] - before

    env.process = counting_process
    heap_entries = env.run(until=env.process(driver()))
    return (
        events["call"] / calls,
        events["c_call"] / calls,
        heap_entries / calls,
        len(handlers) / calls,
    )


@pytest.mark.parametrize(
    "make, max_python_calls, heap_entries",
    [
        # 96.4 / 66.4 C calls; 113.4 / 70.4 while the NSM-host address
        # ran in two generators of its own under FindNSM's frame, each
        # hit counted through ResolverCache._count and each call built
        # and validated a new address, endpoint and binding; 116.4 while
        # that address ran through BindResolver.lookup; 130.4 while each
        # span site called span() and each charge built its Charge in a
        # frame; 301 / 133 before the hit path stopped re-deriving, 231
        # while each of its 9 charges was a generator frame, 191.7 while
        # four to six frames resumed per charge
        pytest.param(find_nsm(FAST_PATH), 100, 9, id="fast-path"),
        # 184.5 / 97.5; 196.5 / 103.5 while each call built its binding
        # and each hit counted through ResolverCache._count; 216.5 while
        # each of the five mappings ran through BindResolver.lookup,
        # 244.5, and 426 / 145, then 366, then 307.9
        pytest.param(find_nsm(PolicySet.default()), 238, 13, id="six-mappings"),
        # 21.0 / 14.0 (22.0 while the hit counted through
        # ResolverCache._count, 26.0 while the mapping resumed a
        # BindResolver.lookup frame under it, 30.0 before the span guard
        # and the in-place Charge, 42.0 while the probe was a generator
        # of its own)
        pytest.param(lookup_hit, 27, 2, id="lookup-hit"),
    ],
)
def test_warm_find_nsm_host_and_kernel_budget(make, max_python_calls, heap_entries):
    python_calls, c_calls, entries, _ = host_and_kernel_cost(make)
    print(
        f"warm call: {python_calls:.1f} python calls, {c_calls:.1f} C calls, "
        f"{entries:g} heap entries"
    )
    assert entries == heap_entries
    assert python_calls <= max_python_calls


@pytest.mark.parametrize(
    "make, max_python_calls, heap_entries",
    [
        # 1 516.0 / 810.1 C calls; 1 556.0 while its meta mappings ran
        # through BindResolver.lookup, 1 560.0 / 785.1 before that;
        # 1 658.0 / 732.1 while its span sites
        # called span() with tracing off and each of its 54 charges paid
        # a Charge.__init__ frame; 2 043 / 1 104 while each query and
        # its answer was marshalled again (the marshallers now recall
        # them by wire key, after the warm-ups), four Import frames only
        # re-yielded one inner generator and each leg formatted its
        # endpoint; 2 468 and 9 handler processes while every handler
        # was a process, every request a generator with an AnyOf per
        # attempt, and every address key a Python __str__
        pytest.param(
            cold_import("BIND-cs", "DesiredService", NAME),
            1_555,
            80,
            id="bind-cs",
        ),
        # 1 500.6 / 859.5; 1 540.6 likewise, 1 544.6 / 835.5, 1 640.6 /
        # 780.5, 1 985.6 / 1 096.5, and 2 401.4 and 8
        pytest.param(
            cold_import("CH-hcs", "PrintService", HNSName("CH-hcs", "dlion:hcs:uw")),
            1_555,
            81,
            id="ch-hcs",
        ),
    ],
)
def test_cold_import_host_and_kernel_budget(make, max_python_calls, heap_entries):
    python_calls, c_calls, entries, handlers = host_and_kernel_cost(
        make, calls=COLD_CALLS
    )
    print(
        f"cold Import: {python_calls:.1f} python calls, {c_calls:.1f} C calls, "
        f"{entries:g} heap entries, {handlers:g} handler processes"
    )
    assert entries == heap_entries
    assert handlers == 0
    assert python_calls <= max_python_calls
