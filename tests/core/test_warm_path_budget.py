"""What one warm ``FindNSM``, and one cold ``Import``, cost the host and
the kernel.

A hit hands back what the caches hold: nothing on the path re-parses a
record, re-validates an address, rebuilds the binding it returns or
re-names a counter, and no generator frame sits between the frame that
yields a hit's two charges and the cache.  Simulated cost must not move
at all: the heap entries per call are the path's CPU charges (probe +
copy per mapping, plus the library's fixed one).  Both are ``COSTS``'
``warm/*`` and ``cold-import/*`` rows (``tests/test_costs.py``).

A cold ``Import`` is Table 3.1's operation: every cache flushed first,
so each of its mappings and binding exchanges reaches a server — and no
server starts a process to answer.
"""

import functools

import pytest

from repro.core import Arrangement, HNSName
from repro.resolution import DEFAULT_RESOLUTION_POLICY, FastPathPolicy, PolicySet
from repro.workloads import build_stack, build_testbed
from tests.cost import PROBES, probe, window

CALLS = 50
COLD_CALLS = 10
#: the name the perf ledger's ``core.probe.find_nsm_hit_us`` resolves
NAME = HNSName("BIND-cs", "fiji.cs.washington.edu")

FAST_PATH = PolicySet(
    resolution=DEFAULT_RESOLUTION_POLICY, fast_path=FastPathPolicy()
)


def find_nsm(policies):
    testbed = build_testbed(seed=0)
    hns = testbed.make_hns(testbed.client, policies=policies)
    return window(testbed.env, functools.partial(hns.find_nsm, NAME, "HRPCBinding"), CALLS)


@probe("warm/fast-path", memo=True)
def _fast_path():
    """The batched mappings and the NSM host's address are hits read in
    FindNSM's own frames, each yielding its probe and copy charges
    inline (a charge nobody waits behind runs nothing when it ends), the
    binding is the memo, and with tracing off no span attribute is
    set."""
    return find_nsm(FAST_PATH)


@probe("warm/six-mappings", memo=True)
def _six_mappings():
    """Six sequential mappings, each a hit in the meta store's mapping
    frame."""
    return find_nsm(PolicySet.default())


@probe("warm/lookup-hit", memo=True)
def _lookup_hit():
    """Mapping 1 on a default meta store, the read ``update_storm``'s
    readers make: one hit in the meta store's mapping frame, which
    yields the probe and copy charges itself (no ``BindResolver.lookup``
    frame and no ``bind.lookup`` span beneath it), the hit counted on a
    mirror counter, and no ``set()`` on the no-op span."""
    testbed = build_testbed(seed=0)
    store = testbed.make_metastore(testbed.client)
    hit = functools.partial(store.context_to_name_service, NAME.context)
    return window(testbed.env, hit, CALLS)


def cold_import(name_service, service, name):
    """The ledger's ``cold_import`` op: every cache flushed (unmeasured),
    then one ``Import`` through an all-local stack."""
    testbed = build_testbed(seed=0)
    stack = build_stack(testbed, Arrangement.ALL_LOCAL, name_service=name_service)
    call = functools.partial(stack.importer.import_binding, service, name)
    return window(testbed.env, call, COLD_CALLS, prepare=stack.flush_all_caches)


@probe("cold-import/bind-cs", memo=True)
def _cold_import_bind():
    """Each query and answer is recalled by its wire key after the
    warm-ups, span sites with tracing off are an attribute test, every
    server answers from its charges' callbacks, with no handler process,
    no uncontended charge runs anything when it ends, each wire hop is
    one route with its values filled in place, and a host's liveness is
    an attribute and its address-table entry a dict read, and so is the
    clock."""
    return cold_import("BIND-cs", "DesiredService", NAME)


@probe("cold-import/ch-hcs", memo=True)
def _cold_import_clearinghouse():
    """Likewise, through the Clearinghouse."""
    return cold_import("CH-hcs", "PrintService", HNSName("CH-hcs", "dlion:hcs:uw"))


@pytest.mark.parametrize("make", ["fast-path", "six-mappings", "lookup-hit"])
def test_warm_find_nsm_host_and_kernel_budget(make):
    """A warm call starts no process."""
    assert PROBES[f"warm/{make}"]().started == []


@pytest.mark.parametrize("make", ["bind-cs", "ch-hcs"])
def test_cold_import_host_and_kernel_budget(make):
    """No server starts a handler process to answer (a process a
    delivery starts is named for its transport)."""
    started = PROBES[f"cold-import/{make}"]().started
    assert [name for name in started if name and name.endswith(".handler")] == []
