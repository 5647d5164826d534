"""The federation across multiple Ethernet segments (gateways)."""

import pytest

from repro.bind import BindResolver, BindServer, ResourceRecord, Zone
from repro.core import HNSName
from repro.core.hns import HNS
from repro.core.metastore import MetaStore
from repro.core.admin import HnsAdministrator
from repro.core.nsms import BindHostAddressNSM
from repro.harness.calibration import DEFAULT_CALIBRATION
from repro.net import DatagramTransport, Internetwork
from repro.sim import ConstantLatency, Environment

CAL = DEFAULT_CALIBRATION


def run(env, gen):
    return env.run(until=env.process(gen))


@pytest.fixture
def two_campus():
    """Two segments joined by a gateway: the meta server and one name
    service on segment A, another department's name service on B."""
    env = Environment(seed=110)
    net = Internetwork(env)
    seg_a = net.add_segment(latency=ConstantLatency(CAL.wire_base_ms, CAL.wire_per_byte_ms))
    seg_b = net.add_segment(latency=ConstantLatency(CAL.wire_base_ms, CAL.wire_per_byte_ms))
    udp = DatagramTransport(net)

    client = net.add_host("client", seg_a)
    meta_host = net.add_host("metans", seg_a)
    meta = BindServer(
        meta_host,
        zones=[Zone("hns")],
        lookup_cost_ms=CAL.meta_bind_lookup_ms,
        allow_dynamic_update=True,
    )
    meta_ep = meta.listen()

    ns_a_host = net.add_host("ns-a", seg_a)
    zone_a = Zone("a.edu")
    zone_a.add(ResourceRecord.a_record("host1.a.edu", "10.0.0.1"))
    ns_a = BindServer(ns_a_host, zones=[zone_a])
    ep_a = ns_a.listen()

    ns_b_host = net.add_host("ns-b", seg_b)
    zone_b = Zone("b.edu")
    zone_b.add(ResourceRecord.a_record("host9.b.edu", "10.0.1.9"))
    ns_b = BindServer(ns_b_host, zones=[zone_b])
    ep_b = ns_b.listen()

    admin = HnsAdministrator(
        MetaStore(meta_host, udp, meta_ep, calibration=CAL)
    )

    def register():
        yield from admin.register_name_service("NS-A", "bind", "ns-a", 53)
        yield from admin.register_name_service("NS-B", "bind", "ns-b", 53)
        yield from admin.register_context("CAMPUS-A", "NS-A")
        yield from admin.register_context("CAMPUS-B", "NS-B")
        for ns in ("NS-A", "NS-B"):
            yield from admin.register_nsm(
                nsm_name=f"HostAddress-{ns}",
                query_class="HostAddress",
                name_service=ns,
                host_name="host1.a.edu",
                host_context="CAMPUS-A",
                program=f"nsm.HostAddress-{ns}",
                suite="sunrpc",
                port=9400,
            )

    run(env, register())

    hns = HNS(MetaStore(client, udp, meta_ep, calibration=CAL), calibration=CAL)
    hns.link_host_address_nsm(
        "NS-A",
        BindHostAddressNSM(client, "NS-A", udp, ep_a, calibration=CAL),
    )
    hns.link_host_address_nsm(
        "NS-B",
        BindHostAddressNSM(client, "NS-B", udp, ep_b, calibration=CAL),
    )
    return env, net, client, hns, ep_a, ep_b, udp


def test_cross_segment_resolution(two_campus):
    env, net, client, hns, ep_a, ep_b, udp = two_campus
    nsm_b = hns._host_address_nsms["NS-B"]
    result = run(env, nsm_b.query(HNSName("CAMPUS-B", "host9.b.edu")))
    assert result.value["address"] == "10.0.1.9"


def test_cross_segment_lookup_pays_gateway_cost(two_campus):
    env, net, client, hns, ep_a, ep_b, udp = two_campus
    resolver_a = BindResolver(client, udp, ep_a, calibration=CAL)
    resolver_b = BindResolver(client, udp, ep_b, calibration=CAL)
    start = env.now
    run(env, resolver_a.lookup("host1.a.edu"))
    same_segment = env.now - start
    start = env.now
    run(env, resolver_b.lookup("host9.b.edu"))
    cross_segment = env.now - start
    # Two gateway hops (there and back) at 8 ms plus the far wire.
    assert cross_segment - same_segment == pytest.approx(2 * (8.0 + 1.0), abs=1.5)


def test_findnsm_works_across_segments(two_campus):
    env, net, client, hns, ep_a, ep_b, udp = two_campus
    binding = run(
        env, hns.find_nsm(HNSName("CAMPUS-B", "host9.b.edu"), "HostAddress")
    )
    assert binding.program == "nsm.HostAddress-NS-B"


def test_gateway_partition_isolates_remote_segment(two_campus):
    """Crashing every host on segment B: local naming keeps working."""
    env, net, client, hns, ep_a, ep_b, udp = two_campus
    for host in net.segments[1].hosts:
        host.crash()
    nsm_a = hns._host_address_nsms["NS-A"]
    result = run(env, nsm_a.query(HNSName("CAMPUS-A", "host1.a.edu")))
    assert result.value["address"] == "10.0.0.1"
    from repro.net import TransportTimeout

    nsm_b = hns._host_address_nsms["NS-B"]

    def scenario():
        with pytest.raises(TransportTimeout):
            yield from nsm_b.query(HNSName("CAMPUS-B", "host9.b.edu"))
        return "done"

    assert run(env, scenario()) == "done"
