"""Heterogeneous filing: Fetch/Store over global names.

The HCS file system mediates access to the local file systems of every
system type.  This example names two volumes — one exported by a UNIX
file server, one by a Xerox machine — and copies a file between them.
The client never learns which is which: the FileService NSMs resolve
each volume to (server binding, native volume id).

Run:  python examples/heterogeneous_filing.py
"""

from repro.core import HNSName, NsmStub
from repro.core.nsms import BindFileServiceNSM, ClearinghouseFileServiceNSM
from repro.hcsfs import FILE_PROGRAM, FileServer, HcsFileSystem
from repro.hrpc import HrpcRuntime
from repro.workloads import build_testbed

SRC = HNSName("BIND-cs", "src.projects.cs.washington.edu")   # UNIX volume
DOCS = HNSName("CH-hcs", "docs:hcs:uw")                      # Xerox volume


def main() -> None:
    testbed = build_testbed(seed=6)
    env = testbed.env

    # File servers on both sides, registered with their native binding
    # protocols (portmapper on the Sun, Courier binder on the D-machine).
    fiji_fs = FileServer(testbed.fiji, volumes=["/projects/src"], port=9600)
    testbed.fiji.service_at(111).register_local(FILE_PROGRAM, 9600)
    dlion_fs = FileServer(testbed.dlion, volumes=["/docs"], port=9601)
    testbed.dlion.service_at(5002).advertise_local(FILE_PROGRAM, 9601)
    dlion_fs.put_direct("/docs", "sosp87.ms", b".TL\nA Name Service for Evolving, Heterogeneous Systems\n")

    # The client: HNS + the two FileService NSMs, linked in.
    hns = testbed.make_hns(testbed.client)
    stub = NsmStub(testbed.client)
    for nsm in (
        testbed.make_nsm(BindFileServiceNSM, testbed.client),
        testbed.make_nsm(ClearinghouseFileServiceNSM, testbed.client),
    ):
        hns.link_local_nsm(nsm)
        stub.link_local(nsm)
    fs = HcsFileSystem(
        testbed.client, hns, stub, HrpcRuntime(testbed.client, testbed.internet)
    )

    def session():
        data = yield from fs.fetch(DOCS, "sosp87.ms")
        print(f"fetched {DOCS}::sosp87.ms ({len(data)} bytes, from the Xerox side)")
        stored = yield from fs.copy(DOCS, "sosp87.ms", SRC, "papers/sosp87.ms")
        print(f"copied to {SRC}::papers/sosp87.ms ({stored} bytes, onto the UNIX side)")
        names = yield from fs.listdir(SRC, prefix="papers/")
        print(f"listing of {SRC}::papers/ -> {names}")

    env.run(until=env.process(session()))
    print(
        "\nThe same Fetch/Store interface reached two file systems with "
        "different naming,\nbinding protocols, and wire formats — located "
        "through the HNS, not a location database."
    )


if __name__ == "__main__":
    main()
