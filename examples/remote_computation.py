"""Remote computation: the third HCS core service, over the HNS.

Submits jobs to compute hosts named in different name services, and
demonstrates failover when a compute host dies — the executor simply
rebinds through the HNS.

Run:  python examples/remote_computation.py
"""

from repro.core import HNSName, NsmStub
from repro.core.import_call import HrpcImporter, LocalFinder
from repro.core.nsms import BindBindingNSM, ClearinghouseBindingNSM
from repro.hrpc import HrpcRuntime
from repro.rexec import REXEC_PROGRAM, RexecServer
from repro.rexec.client import RemoteExecutor
from repro.workloads import build_testbed

FIJI = HNSName("BIND-cs", "fiji.cs.washington.edu")
JUNE = HNSName("BIND-cs", "june.cs.washington.edu")
DLION = HNSName("CH-hcs", "dlion:hcs:uw")

CORPUS = b"""the hns differs significantly from other name services because
of the requirements of our heterogeneous environment"""


def main() -> None:
    testbed = build_testbed(seed=7)
    env = testbed.env

    # Workers on a Sun, a MicroVAX, and a Xerox D-machine.
    from repro.hrpc import Portmapper

    for host in (testbed.fiji, testbed.june):
        worker = RexecServer(host, calibration=testbed.calibration)
        pm = host.service_at(111) or Portmapper(host, calibration=testbed.calibration)
        if pm.endpoint is None:
            pm.listen()
        pm.register_local(REXEC_PROGRAM, worker.endpoint.port)
    ch_worker = RexecServer(testbed.dlion, calibration=testbed.calibration)
    testbed.dlion.service_at(5002).advertise_local(
        REXEC_PROGRAM, ch_worker.endpoint.port
    )

    # Client wiring: HNS + binding NSMs, all in-process.
    hns = testbed.make_hns(testbed.client)
    stub = NsmStub(testbed.client)
    for nsm in (
        testbed.make_nsm(BindBindingNSM, testbed.client),
        testbed.make_nsm(ClearinghouseBindingNSM, testbed.client),
    ):
        hns.link_local_nsm(nsm)
        stub.link_local(nsm)
    runtime = HrpcRuntime(testbed.client, testbed.internet)
    importer = HrpcImporter.direct(
        testbed.client, LocalFinder(hns), stub,
        calibration=testbed.calibration,
    )
    executor = RemoteExecutor(testbed.client, importer, runtime)

    def session():
        for target in (FIJI, DLION):
            reply = yield from executor.run_on(target, "wordcount", CORPUS)
            print(
                f"wordcount on {target}: {reply['result']} "
                f"(ran on host {reply['host']!r})"
            )
        # Failover: fiji dies mid-campaign; run_anywhere moves on.
        print("\ncrashing fiji and resubmitting with candidates [fiji, june]...")
        testbed.fiji.crash()
        reply = yield from executor.run_anywhere(
            [FIJI, JUNE], "checksum", CORPUS
        )
        print(f"checksum landed on {reply['host']!r}: {reply['result']['sha256'][:16]}...")

    env.run(until=env.process(session()))


if __name__ == "__main__":
    main()
