"""Figure 2.1: HNS query processing.

The figure shows a client asking the HNS for an NSM, being handed a
handle for the Clearinghouse NSM (or the BIND NSM for a later query),
and calling it.  This bench regenerates the flow as an event trace plus
a per-step latency breakdown, for a Clearinghouse-context query
followed by a BIND-context query — "the client does not need to be
aware of which name service it is calling."
"""

import pytest

from repro.core import Arrangement
from repro.core.nsms import BindBindingNSM
from repro.workloads import build_stack, build_testbed

from conftest import DLION, FIJI, run


def drive_figure_2_1(seed=81):
    """Run the two-query scenario; return (trace records, step timings)."""
    testbed = build_testbed(seed=seed)
    env = testbed.env
    env.trace.enabled = True
    # NSMs for both name services linked into the client, as in the
    # figure's single-client view.
    ch_stack = build_stack(testbed, Arrangement.ALL_LOCAL, name_service="CH-hcs")
    bind_nsm = testbed.make_nsm(BindBindingNSM, testbed.client)
    ch_stack.hns.link_local_nsm(bind_nsm)
    ch_stack.importer.nsm_stub.link_local(bind_nsm)

    timings = {}
    start = env.now
    ch_binding = run(env, ch_stack.importer.import_binding("PrintService", DLION))
    timings["query 1 (Clearinghouse context)"] = env.now - start
    start = env.now
    bind_binding = run(
        env, ch_stack.importer.import_binding("DesiredService", FIJI)
    )
    timings["query 2 (BIND context)"] = env.now - start
    return env.trace.records, timings, ch_binding, bind_binding


@pytest.mark.benchmark(group="figure-2.1")
def test_figure_2_1_query_processing(benchmark):
    records, timings, ch_binding, bind_binding = benchmark(drive_figure_2_1)
    print("\nFigure 2.1 — HNS query processing, event trace:")
    for record in records:
        if record.category in ("hns", "nsm", "import", "clearinghouse", "bind"):
            print(f"  {record}")
    print("per-query latency:")
    for label, ms in timings.items():
        print(f"  {label}: {ms:.1f} ms")
    # The figure's content: the same client flow reaches both NSMs and
    # both underlying name services, returning suite-correct bindings.
    categories = {r.category for r in records}
    assert {"hns", "nsm", "import"} <= categories
    hns_msgs = [r.message for r in records if r.category == "hns"]
    assert any("HRPCBinding-CH-hcs" in m for m in hns_msgs)
    assert any("HRPCBinding-BIND-cs" in m for m in hns_msgs)
    assert ch_binding.suite == "courier"
    assert bind_binding.suite == "sunrpc"
    # The Clearinghouse-backed query costs more (auth + disk, 156 vs 27
    # ms native), visible end-to-end.
    assert timings["query 1 (Clearinghouse context)"] > timings[
        "query 2 (BIND context)"
    ]


@pytest.mark.benchmark(group="figure-2.1")
def test_client_is_agnostic_to_name_service(benchmark):
    """Both queries used the identical client interface: one importer,
    one call shape — the central claim the figure illustrates."""

    def measure():
        _, timings, ch_binding, bind_binding = drive_figure_2_1(seed=82)
        return timings, ch_binding, bind_binding

    timings, ch_binding, bind_binding = benchmark(measure)
    # Results are the same standardized shape.
    assert type(ch_binding) is type(bind_binding)
    assert {ch_binding.suite, bind_binding.suite} == {"courier", "sunrpc"}
