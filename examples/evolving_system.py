"""An evolving system: integrate a new system type with zero client change.

The paper's raison d'etre: "applications existing in newly introduced
subsystems can continue to run unaltered, while the modifications they
make in their local name services are automatically reflected in the
global name service."

This example:

1. builds the testbed and an ordinary HNS client;
2. introduces a brand-new department with its own BIND (the new
   "system type") — all that happens is *registration*: a name service
   record, a context, and one NSM;
3. shows the unmodified client resolving names in the new system;
4. shows a *native* application on the new system adding a host through
   its own name service, and that change being instantly visible
   globally — no reregistration, ever.

Run:  python examples/evolving_system.py
"""

from repro.bind import BindServer, ResourceRecord, Zone
from repro.core import HNSName, HnsAdministrator
from repro.core.nsms import BindHostAddressNSM
from repro.workloads import build_testbed


def main() -> None:
    testbed = build_testbed(seed=3)
    env = testbed.env

    # The "existing" client: built before the new system exists.
    hns = testbed.make_hns(testbed.client)
    hostaddr_nsm = testbed.make_nsm(BindHostAddressNSM, testbed.client)

    def resolve(context: str, name: str):
        result = yield from hostaddr_nsm.query(HNSName(context, name))
        return result.value["address"]

    # ------------------------------------------------------------------
    # A new department arrives with its own name service and hosts.
    # ------------------------------------------------------------------
    print("introducing a new system type: the astronomy department ...")
    astro_host = testbed.internet.add_host("astrons")
    astro_zone = Zone("astro.washington.edu")
    astro_zone.add(ResourceRecord.a_record("kepler.astro.washington.edu", "128.95.1.150"))
    astro_server = BindServer(astro_host, zones=[astro_zone], name="astro-bind")
    astro_endpoint = astro_server.listen()

    admin = HnsAdministrator(testbed.make_metastore(testbed.meta_host))

    def integrate():
        yield from admin.register_name_service(
            "BIND-astro", "bind", "astrons.cs.washington.edu", 53
        )
        yield from admin.register_context("ASTRO", "BIND-astro")
        yield from admin.register_nsm(
            nsm_name="HostAddress-BIND-astro",
            query_class="HostAddress",
            name_service="BIND-astro",
            host_name="nsmhost.cs.washington.edu",
            host_context="BIND-srv",
            program="nsm.HostAddress-BIND-astro",
            suite="sunrpc",
            port=9300,
        )

    env.run(until=env.process(integrate()))
    print("  registered: name service + context + one NSM. That's all.\n")

    # The client needs an NSM *instance* for the new service; here we
    # link one locally (a remote one shared by everyone works the same).
    astro_nsm = BindHostAddressNSM(
        testbed.client, "BIND-astro", testbed.udp, astro_endpoint,
        calibration=testbed.calibration,
    )
    hns.link_local_nsm(astro_nsm)

    def demo():
        # 1. The unmodified client resolves a name in the new system.
        binding = yield from hns.find_nsm(
            HNSName("ASTRO", "kepler.astro.washington.edu"), "HostAddress"
        )
        print(f"unmodified client, new system: FindNSM -> {binding.describe()}")
        result = yield from astro_nsm.query(
            HNSName("ASTRO", "kepler.astro.washington.edu")
        )
        print(f"  kepler.astro.washington.edu -> {result.value['address']}\n")

        # 2. A native application on the new system adds a host through
        #    ITS OWN name service — direct access means the HNS sees it.
        print("native application adds 'hubble' via its local name service ...")
        astro_zone.add(
            ResourceRecord.a_record("hubble.astro.washington.edu", "128.95.1.151")
        )
        result = yield from astro_nsm.query(
            HNSName("ASTRO", "hubble.astro.washington.edu")
        )
        print(
            f"  globally visible immediately: hubble -> {result.value['address']}"
        )
        print("  (no reregistration happened; the data never left the local service)")

    env.run(until=env.process(demo()))


if __name__ == "__main__":
    main()
