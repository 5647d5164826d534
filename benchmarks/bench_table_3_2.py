"""Table 3.2: the effect of marshalling costs on cache access speed.

Regenerates the {cache miss, marshalled hit, demarshalled hit} x
{1 resource record, 6 resource records} grid, plus the paper's
comparison against the standard BIND marshalling routines (0.65 and
2.6 msec).
"""

import pytest

from repro.bind import BindResolver, CacheFormat, ResolverCache
from repro.harness import ComparisonTable
from repro.harness.report import PAPER_TABLE_3_2
from repro.serial import HandcodedMarshaller, StubCompiler
from repro.bind.messages import QUERY_RESPONSE_IDL, QueryResponse, STATUS_OK
from repro.workloads import build_testbed

from conftest import timed

#: names in the testbed's public BIND resolving to 1 and 6 records
NAMES = {1: "fiji.cs.washington.edu", 6: "gateway.gw.net"}


def _testbed_with_gateway(seed=31):
    """Testbed plus a 6-address gateway record (Table 3.2's 6-RR case)."""
    from repro.bind import ResourceRecord, Zone

    testbed = build_testbed(seed=seed)
    zone = Zone("gw.net")
    for i in range(6):
        zone.add(ResourceRecord.a_record("gateway.gw.net", f"10.0.0.{i + 1}"))
    testbed.public_server.add_zone(zone)
    return testbed


def measure_cell(testbed, records, fmt):
    """(miss, hit) simulated ms through the HNS's generated-marshalling
    BIND interface with the given cache format."""
    env = testbed.env
    cache = ResolverCache(env, fmt=fmt, calibration=testbed.calibration)
    resolver = BindResolver(
        testbed.client,
        testbed.udp,
        testbed.public_endpoint,
        marshalling="generated",
        cache=cache,
        calibration=testbed.calibration,
    )
    miss = timed(env, resolver.lookup(NAMES[records]))
    hit = timed(env, resolver.lookup(NAMES[records]))
    return miss, hit


def full_grid():
    out = {}
    for records in (1, 6):
        testbed = _testbed_with_gateway()
        # Use the meta server's light-load cost profile for this cache
        # experiment, as the paper's Table 3.2 did (its misses are far
        # cheaper than a 27 ms public lookup).
        testbed.public_server.lookup_cost_ms = testbed.calibration.meta_bind_lookup_ms
        miss, dem_hit = measure_cell(testbed, records, CacheFormat.DEMARSHALLED)
        testbed2 = _testbed_with_gateway(seed=32)
        testbed2.public_server.lookup_cost_ms = testbed2.calibration.meta_bind_lookup_ms
        _, mar_hit = measure_cell(testbed2, records, CacheFormat.MARSHALLED)
        out[records] = (miss, mar_hit, dem_hit)
    return out


@pytest.mark.benchmark(group="table-3.2")
def test_table_3_2_grid(benchmark):
    grid = benchmark(full_grid)
    table = ComparisonTable("Table 3.2: marshalling costs vs cache access speed (msec)")
    for records, cells in grid.items():
        labels = ("cache miss", "marshalled cache hit", "demarshalled cache hit")
        for label, paper, measured in zip(labels, PAPER_TABLE_3_2[records], cells):
            table.add(f"{records} RR / {label}", paper, measured)
            benchmark.extra_info[f"{records}RR/{label}"] = round(measured, 2)
    print()
    print(table.render())
    # Shape: demarshalled caching is the decisive win at every size.
    for records, (miss, mar_hit, dem_hit) in grid.items():
        assert miss > mar_hit > dem_hit
        assert mar_hit / dem_hit > 8  # "the times decreased dramatically"
    # Hit columns are calibrated exactly; the miss column within 11%
    # (the paper's own miss deltas are non-monotone in response size).
    for records in (1, 6):
        _, mar_hit, dem_hit = grid[records]
        paper_miss, paper_mar, paper_dem = PAPER_TABLE_3_2[records]
        assert mar_hit == pytest.approx(paper_mar, rel=0.005)
        assert dem_hit == pytest.approx(paper_dem, rel=0.005)
        assert grid[records][0] == pytest.approx(paper_miss, rel=0.11)


@pytest.mark.benchmark(group="table-3.2")
def test_standard_vs_generated_marshalling(benchmark):
    """'the standard BIND marshalling routines ... take .65 msec and 2.6
    msec for one and six resource record lookups' vs the generated
    routines' 10.28 / 24.95 ms."""

    def measure():
        from repro.bind import ResourceRecord

        compiler = StubCompiler()
        generated = compiler.marshaller(QUERY_RESPONSE_IDL)
        handcoded = HandcodedMarshaller(QUERY_RESPONSE_IDL)
        out = {}
        for n in (1, 6):
            response = QueryResponse(
                STATUS_OK,
                [ResourceRecord.a_record(NAMES[1], "128.95.1.4") for _ in range(n)],
            ).to_idl()
            wire, _ = handcoded.encode(response)
            _, hand_cost = handcoded.decode(wire)
            _, gen_cost = generated.decode(wire)
            out[n] = (hand_cost, gen_cost)
        return out

    costs = benchmark(measure)
    table = ComparisonTable("Standard vs generated marshalling (msec)")
    table.add("standard, 1 RR", 0.65, costs[1][0])
    table.add("standard, 6 RR", 2.60, costs[6][0])
    table.add("generated, 1 RR (Table 3.2 delta)", 10.28, costs[1][1])
    table.add("generated, 6 RR (Table 3.2 delta)", 24.95, costs[6][1])
    print()
    print(table.render())
    table.check(tolerance_pct=1.0)
    for n in (1, 6):
        assert costs[n][1] / costs[n][0] > 8
