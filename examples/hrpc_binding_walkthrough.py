"""Figure 2.1 walkthrough: HNS query processing, step by step.

One client resolves a name held in the Clearinghouse, then one held in
BIND.  The client code is identical both times; the HNS picks the NSM,
and the NSM speaks whatever its name service speaks (authenticated
Courier + disk on the Xerox side, in-memory DNS on the UNIX side).

Run:  python examples/hrpc_binding_walkthrough.py
"""

from repro.core import Arrangement, HNSName
from repro.core.nsms import BindBindingNSM
from repro.workloads import build_stack, build_testbed


def main() -> None:
    testbed = build_testbed(seed=2)
    env = testbed.env
    env.trace.enabled = True

    # Client with both binding NSMs linked in (the figure's view).
    stack = build_stack(testbed, Arrangement.ALL_LOCAL, name_service="CH-hcs")
    bind_nsm = testbed.make_nsm(BindBindingNSM, testbed.client)
    stack.hns.link_local_nsm(bind_nsm)
    stack.importer.nsm_stub.link_local(bind_nsm)

    queries = [
        ("PrintService", HNSName("CH-hcs", "dlion:hcs:uw")),
        ("DesiredService", HNSName("BIND-cs", "fiji.cs.washington.edu")),
    ]

    def client():
        for service, name in queries:
            print(f"\n=== Query: {service} @ {name} ===")
            mark = len(env.trace.records)
            start = env.now
            binding = yield from stack.importer.import_binding(service, name)
            elapsed = env.now - start
            for record in env.trace.records[mark:]:
                print(f"  {record}")
            print(f"  => {binding.describe()}   [{elapsed:.1f} simulated ms]")

    env.run(until=env.process(client()))
    print(
        "\nSame client interface both times; the Clearinghouse query is "
        "slower because every access is authenticated and its data is on "
        "disk (156 vs 27 ms native lookups)."
    )


if __name__ == "__main__":
    main()
