"""Ablations of the design choices DESIGN.md calls out.

The paper motivates several decisions qualitatively; these benches put
numbers on them:

1. keeping FindNSM's mappings separate vs collapsing them (flexibility
   + storage vs latency — "we chose to keep these mappings separate");
2. TTL choice for the meta cache (staleness vs hit rate);
3. locality of reference (the caching scheme's enabling assumption);
4. scalability in the heterogeneity dimension (more system types must
   not slow lookups, and load stays distributed).
"""

import dataclasses

import pytest

from repro.core import Arrangement, HNSName
from repro.core.nsms import BindHostAddressNSM, ClearinghouseHostAddressNSM
from repro.harness import DEFAULT_CALIBRATION
from repro.resolution import PolicySet, ResolutionPolicy
from repro.workloads import QueryWorkload, build_stack, build_testbed

from conftest import FIJI, run, timed


# ----------------------------------------------------------------------
# 1. Separate vs collapsed mappings
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="ablations")
def test_collapsed_mapping_ablation(benchmark):
    """Collapsing (context, query class) directly to an NSM binding
    saves cold latency but multiplies meta storage — the tradeoff the
    paper resolved with caching instead."""

    def measure():
        testbed = build_testbed(seed=91)
        hns = testbed.make_hns(testbed.client)
        env = testbed.env
        separate_cold = timed(env, hns.find_nsm(FIJI, "HRPCBinding"))
        separate_warm = timed(env, hns.find_nsm(FIJI, "HRPCBinding"))
        # Collapsed: one meta lookup carrying the full binding info plus
        # one host-address resolution.  Model its cold cost from the
        # measured per-mapping costs (1 of 5 meta lookups + mapping 6).
        per_meta_miss = (separate_cold - 2.0 - 27.7) / 5
        collapsed_cold = 2.0 + per_meta_miss + 27.7
        # Storage: separate keeps 1 record per context + per (ns, qc) +
        # per NSM; collapsed needs one *full* record per (context, qc).
        zone = testbed.meta_server.zones[0]
        separate_bytes = zone.wire_size()
        contexts, qcs, nsm_record_bytes = 3, 4, 120
        collapsed_bytes = contexts * qcs * nsm_record_bytes
        return separate_cold, separate_warm, collapsed_cold, separate_bytes, collapsed_bytes

    sep_cold, sep_warm, col_cold, sep_bytes, col_bytes = benchmark(measure)
    print(
        f"\nseparate mappings: cold {sep_cold:.0f} ms, warm {sep_warm:.1f} ms, "
        f"meta zone {sep_bytes} B"
    )
    print(
        f"collapsed mapping: cold ~{col_cold:.0f} ms, "
        f"meta zone ~{col_bytes} B (full binding per context x query class)"
    )
    # Collapsing would cut the cold path by >2x...
    assert col_cold < sep_cold / 2
    # ...but caching already gets far below even the collapsed cold cost,
    # which is why the paper "decided to adopt them for the flexibility".
    assert sep_warm < col_cold / 5


# ----------------------------------------------------------------------
# 2. TTL sweep
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="ablations")
def test_ttl_sweep(benchmark):
    """Short TTLs re-pay the miss cost on a refresh cadence; long TTLs
    amortize it (at the price of staleness the paper accepts)."""

    def measure():
        results = []
        for ttl in (200.0, 2_000.0, 3_600_000.0):
            cal = dataclasses.replace(DEFAULT_CALIBRATION, meta_ttl_ms=ttl)
            testbed = build_testbed(seed=92, calibration=cal)
            stack = build_stack(testbed, Arrangement.ALL_LOCAL)
            env = testbed.env
            total = 0.0
            for i in range(20):
                total += timed(
                    env, stack.importer.import_binding("DesiredService", FIJI)
                )
                env.run(until=env.now + 100)  # 100 ms between queries
            results.append((ttl, total / 20, stack.hns.metastore.cache.hit_ratio))
        return results

    results = benchmark(measure)
    print("\nmeta TTL sweep (20 queries, 100 ms apart):")
    for ttl, mean_ms, hit_ratio in results:
        print(f"  ttl={ttl:>10.0f} ms: mean import {mean_ms:6.1f} ms, "
              f"meta hit ratio {hit_ratio:.2f}")
    means = [m for _, m, _ in results]
    assert means[0] > means[1] > means[2]
    assert results[-1][2] > 0.9


# ----------------------------------------------------------------------
# 3. Locality of reference
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="ablations")
def test_locality_sweep(benchmark):
    """The specialized cache pays off exactly as locality rises."""

    def measure():
        population = [
            (HNSName("BIND-cs", f"{h}.cs.washington.edu"), "HostAddress", {})
            for h in ("fiji", "june", "ns0", "nsmhost", "hnshost", "agenthost",
                      "client", "dlion")
        ]
        results = []
        for s in (0.0, 1.0, 2.0):
            testbed = build_testbed(seed=93)
            env = testbed.env
            hostaddr = testbed.make_nsm(BindHostAddressNSM, testbed.client)
            workload = QueryWorkload(
                env, population, mean_interarrival_ms=10, zipf_s=s,
                stream=f"loc{s}",
            )
            events = workload.generate(60)
            total = 0.0
            for event in events:
                total += timed(env, hostaddr.query(event.hns_name))
            assert hostaddr.cache is not None
            results.append((s, total / len(events), hostaddr.cache.hit_ratio))
        return results

    results = benchmark(measure)
    print("\nlocality sweep (Zipf exponent -> mean lookup, hit ratio):")
    for s, mean_ms, hit_ratio in results:
        print(f"  s={s:3.1f}: mean {mean_ms:5.1f} ms, hit ratio {hit_ratio:.2f}")
    assert results[-1][1] < results[0][1]  # more locality, faster
    assert results[-1][2] > results[0][2]


# ----------------------------------------------------------------------
# 4. Scalability in the heterogeneity dimension
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="ablations")
def test_system_type_scalability(benchmark):
    """Adding system types leaves per-query cost flat and distributes
    query load onto the new subsystems' own servers."""

    def measure():
        from repro.bind import BindServer, ResourceRecord, Zone
        from repro.core.admin import HnsAdministrator

        results = []
        for extra_systems in (0, 4, 12):
            testbed = build_testbed(seed=94)
            env = testbed.env
            admin = HnsAdministrator(testbed.make_metastore(testbed.meta_host))

            def add_system(i):
                host = testbed.internet.add_host(f"sys{i}")
                zone = Zone(f"dept{i}.edu")
                zone.add(
                    ResourceRecord.a_record(f"box.dept{i}.edu", "128.95.1.250")
                )
                BindServer(host, zones=[zone], name=f"bind{i}").listen()
                yield from admin.register_name_service(
                    f"BIND-dept{i}", "bind", f"sys{i}.cs.washington.edu", 53
                )
                yield from admin.register_context(f"DEPT{i}", f"BIND-dept{i}")
                yield from admin.register_nsm(
                    nsm_name=f"HRPCBinding-BIND-dept{i}",
                    query_class="HRPCBinding",
                    name_service=f"BIND-dept{i}",
                    host_name="nsmhost.cs.washington.edu",
                    host_context="BIND-srv",
                    program=f"nsm.HRPCBinding-BIND-dept{i}",
                    suite="sunrpc",
                    port=9500 + i,
                )

            for i in range(extra_systems):
                run(env, add_system(i))
            # Measure the original system's cold FindNSM with the larger
            # federation in place.
            hns = testbed.make_hns(testbed.client)
            cold = timed(env, hns.find_nsm(FIJI, "HRPCBinding"))
            zone_bytes = testbed.meta_server.zones[0].wire_size()
            results.append((extra_systems, cold, zone_bytes))
        return results

    results = benchmark(measure)
    print("\nheterogeneity scalability (extra system types):")
    for n, cold, zone_bytes in results:
        print(f"  +{n:>2} systems: cold FindNSM {cold:6.1f} ms, meta zone {zone_bytes} B")
    colds = [c for _, c, _ in results]
    # Per-query cost independent of federation size (within 2%)...
    assert max(colds) / min(colds) < 1.02
    # ...while meta state grows only linearly and modestly.
    assert results[-1][2] < results[0][2] * 4


# ----------------------------------------------------------------------
# 5. Broadcast-based location vs context-based lookup
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="ablations")
def test_broadcast_vs_context_location(benchmark):
    """'The alternative of locating the appropriate local name server,
    either through some multicast technique ... is either too
    inefficient in our environment ...' — measure the aggregate cost of
    broadcast location as the segment grows."""

    def measure():
        from repro.broadcast import BroadcastLocator, NameOwnerService
        from repro.net import DatagramTransport, Internetwork
        from repro.sim import ConstantLatency, Environment

        results = []
        for n_hosts in (8, 32, 96):
            env = Environment(seed=96)
            net = Internetwork(env)
            seg = net.add_segment(latency=ConstantLatency(1.0, 0.0008))
            hosts = [net.add_host(f"h{i}", seg) for i in range(n_hosts)]
            owners = [NameOwnerService(h) for h in hosts[1:]]
            owners[-1].own("theservice", port=1)
            udp = DatagramTransport(net)
            locator = BroadcastLocator(hosts[0], udp, wait_ms=80)

            def one_locate():
                answer = yield from locator.locate("theservice")
                return answer

            start = env.now
            env.run(until=env.process(one_locate()))
            latency = env.now - start
            env.run()  # drain stragglers
            total_examinations = sum(o.examined for o in owners)
            # Aggregate CPU burned across the segment for ONE query.
            aggregate_cpu = total_examinations * 1.5 + 4.0
            results.append((n_hosts, latency, aggregate_cpu))
        return results

    results = benchmark(measure)
    print("\nbroadcast location vs segment size (one query):")
    for n, latency, aggregate in results:
        print(
            f"  {n:>3} hosts: client latency {latency:5.1f} ms, "
            f"aggregate segment CPU {aggregate:7.1f} ms"
        )
    # The client barely notices, but the segment-wide cost grows
    # linearly with host count — vs the HNS's fixed two lookups.
    aggregates = [a for _, _, a in results]
    assert aggregates[-1] > 10 * aggregates[0]
    hns_context_cost = 2 * 0.83  # two cached mappings, one process
    assert aggregates[0] > hns_context_cost


# ----------------------------------------------------------------------
# 6. Cache capacity (LRU) sweep
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="ablations")
def test_cache_capacity_sweep(benchmark):
    """An undersized cache thrashes under a Zipf workload; capacity at
    the working-set size restores the hit ratio."""

    def measure():
        from repro.bind import BindResolver, ResolverCache

        results = []
        population = 12
        for capacity in (2, 6, None):
            testbed = build_testbed(seed=97)
            env = testbed.env
            cache = ResolverCache(
                env, capacity=capacity, calibration=testbed.calibration
            )
            resolver = BindResolver(
                testbed.client,
                testbed.udp,
                testbed.public_endpoint,
                cache=cache,
                calibration=testbed.calibration,
            )
            hosts = [
                "fiji", "june", "ns0", "nsmhost", "hnshost", "agenthost",
                "client", "dlion",
            ]
            workload = QueryWorkload(
                env,
                [
                    (HNSName("BIND-cs", f"{h}.cs.washington.edu"), "HostAddress", {})
                    for h in hosts
                ],
                zipf_s=0.8,
                stream=f"cap{capacity}",
            )
            for event in workload.generate(80):
                timed(env, resolver.lookup(str(event.hns_name).split("::")[1]))
            results.append((capacity, cache.hit_ratio, cache.evictions))
        return results

    results = benchmark(measure)
    print("\ncache capacity sweep (80 Zipf lookups over 8 names):")
    for capacity, hit_ratio, evictions in results:
        label = "unbounded" if capacity is None else str(capacity)
        print(f"  capacity {label:>9}: hit ratio {hit_ratio:.2f}, evictions {evictions}")
    ratios = [r for _, r, _ in results]
    assert ratios[0] < ratios[1] <= ratios[2]
    assert results[0][2] > 0  # the small cache actually evicted


# ----------------------------------------------------------------------
# 7. Negative caching
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="ablations")
def test_negative_caching_ablation(benchmark):
    """Repeated lookups of absent names: negative caching turns 27 ms
    round trips into sub-millisecond probes."""

    def measure():
        from repro.bind import BindResolver, NameNotFound, ResolverCache

        out = {}
        for negative_ttl in (0.0, 60_000.0):
            testbed = build_testbed(seed=98)
            env = testbed.env
            resolver = BindResolver(
                testbed.client,
                testbed.udp,
                testbed.public_endpoint,
                cache=ResolverCache(env, calibration=testbed.calibration),
                policies=PolicySet(
                    resolution=dataclasses.replace(
                        ResolutionPolicy.disabled(),
                        negative_ttl_ms=negative_ttl,
                    )
                ),
                calibration=testbed.calibration,
            )

            def miss_twenty():
                for _ in range(20):
                    try:
                        yield from resolver.lookup("ghost.cs.washington.edu")
                    except NameNotFound:
                        pass
                return env.now

            start = env.now
            env.run(until=env.process(miss_twenty()))
            out[negative_ttl] = (env.now - start) / 20
        return out

    means = benchmark(measure)
    print(
        f"\nmean absent-name lookup: {means[0.0]:.1f} ms uncached vs "
        f"{means[60_000.0]:.2f} ms with negative caching"
    )
    assert means[60_000.0] < means[0.0] / 5


# ----------------------------------------------------------------------
# 8. Why the Clearinghouse is slow (the paper's footnote 5)
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="ablations")
def test_clearinghouse_cost_decomposition(benchmark):
    """'Clearinghouse accesses are slow because each access is
    authenticated, and virtually all data is retrieved from disk.  In
    contrast, BIND does no authentication and keeps all its information
    in primary memory.'  Turn those two properties off one at a time."""

    def measure():
        import dataclasses as dc

        from repro.clearinghouse import ClearinghouseClient
        from repro.workloads.scenarios import CREDENTIALS

        results = {}
        variants = {
            "as measured (auth + disk)": {},
            "no authentication": {"ch_auth_cpu_ms": 0.0, "ch_auth_disk_ms": 0.0},
            "data in primary memory": {"ch_data_disk_ms": 0.0},
            "neither (BIND-like)": {
                "ch_auth_cpu_ms": 0.0,
                "ch_auth_disk_ms": 0.0,
                "ch_data_disk_ms": 0.0,
                "ch_process_ms": 20.0,
            },
        }
        for label, overrides in variants.items():
            cal = dc.replace(DEFAULT_CALIBRATION, **overrides)
            testbed = build_testbed(seed=99, calibration=cal)
            env = testbed.env
            client = ClearinghouseClient(
                testbed.client, testbed.tcp, testbed.ch_endpoint, CREDENTIALS
            )
            results[label] = timed(env, client.lookup_address("dlion:hcs:uw"))
        return results

    results = benchmark(measure)
    print("\nClearinghouse lookup cost decomposition:")
    for label, ms in results.items():
        print(f"  {label:<28} {ms:6.1f} ms")
    assert results["as measured (auth + disk)"] == pytest.approx(156, rel=0.02)
    assert results["no authentication"] < 100
    assert results["neither (BIND-like)"] < 35  # approaches BIND's 27


# ----------------------------------------------------------------------
# 9. Cache format under a workload
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="ablations")
def test_cache_format_under_workload(benchmark):
    """Table 3.2's lesson end-to-end: with a hot cache, a marshalled
    meta cache makes every import pay demarshalling again."""

    def measure():
        from repro.bind.cache import CacheFormat

        out = {}
        for fmt in (CacheFormat.DEMARSHALLED, CacheFormat.MARSHALLED):
            testbed = build_testbed(seed=95)
            env = testbed.env
            from repro.core.hns import HNS
            from repro.core.metastore import MetaStore

            metastore = MetaStore(
                testbed.client,
                testbed.udp,
                testbed.meta_endpoint,
                calibration=testbed.calibration,
                cache_format=fmt,
            )
            hns = HNS(metastore, calibration=testbed.calibration)
            hns.link_host_address_nsm(
                "BIND-cs", testbed.make_nsm(BindHostAddressNSM, testbed.client)
            )
            hns.link_host_address_nsm(
                "CH-hcs", testbed.make_nsm(ClearinghouseHostAddressNSM, testbed.client)
            )
            timed(env, hns.find_nsm(FIJI, "HRPCBinding"))  # warm
            warm = sum(
                timed(env, hns.find_nsm(FIJI, "HRPCBinding")) for _ in range(10)
            ) / 10
            out[fmt.value] = warm
        return out

    warm = benchmark(measure)
    print(
        f"\nwarm FindNSM: demarshalled cache {warm['demarshalled']:.1f} ms, "
        f"marshalled cache {warm['marshalled']:.1f} ms"
    )
    assert warm["marshalled"] > 6 * warm["demarshalled"]
