"""What one warm ``FindNSM``, and one cold ``Import``, cost the host and
the kernel, pinned.

A hit hands back what the caches hold: nothing on the path re-parses a
record, re-validates an address, rebuilds the binding it returns or
re-names a counter, and no generator frame sits between the frame that
yields a hit's two charges and the cache.  Host cost is counted with
``tests/cost.py`` (Python frames entered or resumed per call, with an
upper bound that leaves headroom between interpreter versions), so the
test says the same thing on any machine.  Simulated cost must not move
at all: the heap entries per call are the path's CPU charges (probe +
copy per mapping, plus the library's fixed one) and are pinned exactly.

A cold ``Import`` is Table 3.1's operation: every cache flushed first,
so each of its mappings and binding exchanges reaches a server — and no
server starts a process to answer.
"""

import functools

import pytest

from repro.core import Arrangement, HNSName
from repro.resolution import DEFAULT_RESOLUTION_POLICY, FastPathPolicy, PolicySet
from repro.workloads import build_stack, build_testbed
from tests.cost import window

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
    of ``make``'s.  ``make`` returns ``(prepare, call)``; ``prepare``,
    when given, runs unmeasured before every call."""
    testbed = build_testbed(seed=0)
    prepare, call = make(testbed)
    cost = window(testbed.env, call, calls, prepare=prepare)
    # a process a delivery starts is named for its transport
    handlers = [name for name in cost.started if name and name.endswith(".handler")]
    return cost.python_calls, cost.c_calls, cost.heap_entries, len(handlers) / calls


@pytest.mark.parametrize(
    "make, max_python_calls, heap_entries",
    [
        # 82.4 / 57.4 C calls: the batched mappings and the NSM host's
        # address are hits read in FindNSM's own frames, each yielding
        # its probe and copy charges inline (a charge nobody waits
        # behind runs nothing when it ends), the binding is the memo,
        # and with tracing off no span attribute is set
        pytest.param(find_nsm(FAST_PATH), 85, 9, id="fast-path"),
        # 160.5 / 84.5: six sequential mappings, each a hit in the meta
        # store's mapping frame
        pytest.param(find_nsm(PolicySet.default()), 165, 13, id="six-mappings"),
        # 17.0 / 12.0: the mapping frame, the cache probe and its two
        # charges, the hit counted on a mirror counter; no set() on the
        # no-op span
        pytest.param(lookup_hit, 17.5, 2, id="lookup-hit"),
    ],
)
@pytest.mark.memo
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
        # 1 115.0 / 665.1 C calls: each query and answer is recalled
        # by its wire key after the warm-ups, span sites with tracing
        # off are an attribute test, every server answers from its
        # charges' callbacks, with no handler process, no uncontended
        # charge runs anything when it ends, each wire hop is one
        # route with its values filled in place, and a host's liveness
        # is an attribute and its address-table entry a dict read, and
        # so is the clock
        pytest.param(
            cold_import("BIND-cs", "DesiredService", NAME),
            1_120,
            80,
            id="bind-cs",
        ),
        # 1 122.6 / 733.5, likewise through the Clearinghouse
        pytest.param(
            cold_import("CH-hcs", "PrintService", HNSName("CH-hcs", "dlion:hcs:uw")),
            1_125,
            81,
            id="ch-hcs",
        ),
    ],
)
@pytest.mark.memo
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
