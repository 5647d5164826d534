"""One-command reproduction report: every paper figure, declared once.

``python -m repro.harness.report [output.md]`` re-runs the paper's
evaluation (Tables 3.1 and 3.2, the Section 3 component costs, the
binding baselines and equation (1)), folds in the committed
ablation-grid artifacts (``BENCH_ablation_*.json``, emitted by ``python
-m repro.cli bench``), and writes a consolidated paper-vs-measured
report.  Each row carries the tolerance it is held to, the tightest any
check has applied to that figure; a target that is not a figure the
paper prints names its source in the row's label.  The arguments the
paper makes without a figure (``CLAIMS``: footnote 5, load
distribution, broadcast location, the dynamic hit ratios it leaves
open, and the design choices DESIGN.md calls out) follow as measured
rows.  Tier-1 checks every row of ``PAPER_TABLES`` against its bound,
each claim row against its argument's relation, and holds RESULTS.md
equal to this module's output.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import pathlib
import sys
import typing

from repro.core.colocation import Arrangement
from repro.core.model import ColocationModel
from repro.core.names import HNSName
from repro.harness.ablation import SCHEMA_VERSION
from repro.harness.calibration import DEFAULT_CALIBRATION
from repro.harness.tables import ComparisonTable, format_table
from repro.workloads.scenarios import CREDENTIALS, build_stack, build_testbed

FIJI = HNSName("BIND-cs", "fiji.cs.washington.edu")

#: Table 3.1 of the paper (msec): arrangement -> (miss, HNS hit, both hit)
PAPER_TABLE_3_1 = {
    Arrangement.ALL_LOCAL: (460.0, 180.0, 104.0),
    Arrangement.AGENT: (517.0, 235.0, 137.0),
    Arrangement.REMOTE_HNS: (515.0, 232.0, 140.0),
    Arrangement.REMOTE_NSMS: (509.0, 225.0, 147.0),
    Arrangement.ALL_REMOTE: (547.0, 261.0, 181.0),
}

#: Table 3.2 of the paper (msec): records -> (miss, marshalled hit,
#: demarshalled hit)
PAPER_TABLE_3_2 = {1: (20.23, 11.11, 0.83), 6: (32.34, 26.17, 1.22)}

#: Distinct (context, query class) pairs for the preload break-even,
#: alternating name systems so that consecutive cold FindNSMs share as
#: little meta state as possible.
PRELOAD_SWEEP = (
    (FIJI, "HRPCBinding"),
    (HNSName("CH-hcs", "dlion:hcs:uw"), "HRPCBinding"),
    (HNSName("BIND-cs", "schwartz.cs.washington.edu"), "MailboxLocation"),
    (HNSName("CH-hcs", "levy:hcs:uw"), "MailboxLocation"),
    (HNSName("BIND-cs", "src.projects.cs.washington.edu"), "FileService"),
)

#: This suite's raw remote HRPC call (docs/calibration.md), the
#: C(remote call) of equation (1) over the measured cells; the paper
#: estimated 33.
MEASURED_REMOTE_CALL_MS = 34.2


def _run(env, gen):
    return env.run(until=env.process(gen))


def _timed(env, gen) -> float:
    start = env.now
    _run(env, gen)
    return env.now - start


def measure_table_3_1_row(
    arrangement: Arrangement, seed: int = 3
) -> typing.Tuple[float, float, float]:
    """(miss, HNS hit, both hit) simulated ms for one arrangement."""
    testbed = build_testbed(seed=seed)
    stack = build_stack(testbed, arrangement)
    env = testbed.env

    def one():
        return stack.importer.import_binding("DesiredService", FIJI)

    stack.flush_all_caches()
    a = _timed(env, one())
    stack.flush_nsm_caches()
    b = _timed(env, one())
    c = _timed(env, one())
    return a, b, c


def table_3_1(seed: int = 3) -> ComparisonTable:
    """Re-measure all fifteen Table 3.1 cells.

    Row 1 is the calibration anchor, held to 0.5 %; rows 2-5 add one
    uniform remote-call cost per process boundary, held to 8 %.
    """
    table = ComparisonTable("Table 3.1 — HRPC binding by colocation arrangement")
    for arrangement in Arrangement:
        tolerance = 0.5 if arrangement is Arrangement.ALL_LOCAL else 8.0
        for label, paper, measured in zip(
            ("miss", "HNS hit", "both hit"),
            PAPER_TABLE_3_1[arrangement],
            measure_table_3_1_row(arrangement, seed),
        ):
            table.add(f"{arrangement.label} / {label}", paper, measured, tolerance)
    return table


def table_3_2(seed: int = 31) -> ComparisonTable:
    """Re-measure the Table 3.2 cache-format grid.

    The hit columns are calibrated exactly (0.5 %); the paper's own miss
    deltas are non-monotone in response size, so misses hold to 11 %.
    """
    from repro.bind.cache import CacheFormat, ResolverCache
    from repro.bind.resolver import BindResolver
    from repro.bind.rr import ResourceRecord
    from repro.bind.zone import Zone

    table = ComparisonTable("Table 3.2 — marshalling costs vs cache access speed")
    for records in (1, 6):
        measured = []
        for fmt in (None, CacheFormat.MARSHALLED, CacheFormat.DEMARSHALLED):
            testbed = build_testbed(seed=seed)
            zone = Zone("gw.net")
            for i in range(6):
                zone.add(ResourceRecord.a_record("gateway.gw.net", f"10.0.0.{i + 1}"))
            testbed.public_server.add_zone(zone)
            testbed.public_server.lookup_cost_ms = (
                testbed.calibration.meta_bind_lookup_ms
            )
            env = testbed.env
            cache = ResolverCache(
                env,
                fmt=fmt or CacheFormat.DEMARSHALLED,
                calibration=testbed.calibration,
            )
            resolver = BindResolver(
                testbed.client,
                testbed.udp,
                testbed.public_endpoint,
                marshalling="generated",
                cache=cache,
                calibration=testbed.calibration,
            )
            name = "fiji.cs.washington.edu" if records == 1 else "gateway.gw.net"
            first = _timed(env, resolver.lookup(name))
            second = _timed(env, resolver.lookup(name))
            measured.append(first if fmt is None else second)
        for label, p, m, tolerance in zip(
            ("miss", "marshalled hit", "demarshalled hit"),
            PAPER_TABLE_3_2[records],
            measured,
            (11.0, 0.5, 0.5),
        ):
            table.add(f"{records} RR / {label}", p, m, tolerance)
    return table


def _nsm_remote_call(seed: int) -> float:
    """A warm NSM's remote call, less the NSM's 3 ms cache-hit work."""
    from repro.core.nsm import NsmStub, serve_nsm
    from repro.core.nsms.bind import BindBindingNSM
    from repro.hrpc.binding import HRPCBinding
    from repro.hrpc.runtime import HrpcRuntime
    from repro.hrpc.server import HrpcServer

    testbed = build_testbed(seed=seed)
    env = testbed.env
    nsm = testbed.make_nsm(BindBindingNSM, testbed.nsm_host)
    server = HrpcServer(testbed.nsm_host)
    binding = HRPCBinding(
        server.listen(9100), serve_nsm(server, nsm), suite="sunrpc"
    )
    stub = NsmStub(testbed.client, HrpcRuntime(testbed.client, testbed.internet))
    _timed(env, stub.call(binding, FIJI, service="DesiredService"))
    return _timed(env, stub.call(binding, FIJI, service="DesiredService")) - 3.0


def _find_nsm_totals(seed: int, preload: bool) -> typing.List[float]:
    """Running total of ``PRELOAD_SWEEP``'s FindNSMs on one fresh HNS."""
    testbed = build_testbed(seed=seed)
    hns = testbed.make_hns(testbed.client)
    total = _timed(testbed.env, hns.preload()) if preload else 0.0
    totals = []
    for name, query_class in PRELOAD_SWEEP:
        total += _timed(testbed.env, hns.find_nsm(name, query_class))
        totals.append(total)
    return totals


def _preload_break_even(seed: int) -> int:
    """The fewest distinct FindNSMs from which preloading wins at every
    length of ``PRELOAD_SWEEP``."""
    cold = _find_nsm_totals(seed, preload=False)
    preloaded = _find_nsm_totals(seed, preload=True)
    losing = [k for k, (c, p) in enumerate(zip(cold, preloaded), 1) if p >= c]
    return max(losing, default=0) + 1


def headline_figures(seed: int = 41) -> ComparisonTable:
    """Re-measure the prose component costs of Section 3, each to 2 %.

    The paper's prose FindNSM figures (460 cold, 88 cached) cannot both
    hold beside its own Table 3.1; the targets are that table's row-1
    decomposition instead.
    """
    from repro.bind.resolver import BindResolver
    from repro.clearinghouse.client import ClearinghouseClient

    table = ComparisonTable("Section 3 component costs")
    testbed = build_testbed(seed=seed)
    env = testbed.env
    resolver = BindResolver(
        testbed.client, testbed.udp, testbed.public_endpoint,
        calibration=testbed.calibration,
    )
    table.add(
        "native BIND lookup",
        27.0,
        _timed(env, resolver.lookup_address("fiji.cs.washington.edu")),
        2.0,
    )
    ch = ClearinghouseClient(
        testbed.client, testbed.tcp, testbed.ch_endpoint, CREDENTIALS
    )
    table.add(
        "native Clearinghouse lookup",
        156.0,
        _timed(env, ch.lookup_address("dlion:hcs:uw")),
        2.0,
    )
    hns = testbed.make_hns(testbed.client)
    table.add(
        "FindNSM cold (Table 3.1 row 1, six mappings; text: 460)",
        287.7,
        _timed(env, hns.find_nsm(FIJI, "HRPCBinding")),
        2.0,
    )
    table.add(
        "FindNSM cached (Table 3.1 row 1; text: 88)",
        7.0,
        _timed(env, hns.find_nsm(FIJI, "HRPCBinding")),
        2.0,
    )
    table.add(
        "remote NSM call (Table 3.1 147 - 104; text: 22-38)",
        43.0,
        _nsm_remote_call(seed),
        2.0,
    )
    hns2 = testbed.make_hns(testbed.client)
    table.add("cache preload (zone transfer)", 390.0, _timed(env, hns2.preload()), 2.0)
    table.add(
        "FindNSM after preload (as FindNSM cached)",
        7.0,
        _timed(env, hns2.find_nsm(FIJI, "HRPCBinding")),
        2.0,
    )
    table.add(
        "preload break-even (distinct FindNSMs, a count)",
        2.0,
        _preload_break_even(seed),
        2.0,
    )
    return table


def _local_file_binding(seed: int) -> float:
    """Import through the interim replicated local binding files."""
    from repro.baselines.localfile_binding import LocalFileBinder
    from repro.localfiles.registry import BindingFileEntry, LocalBindingFile, Replicator

    testbed = build_testbed(seed=seed)
    env = testbed.env
    replica = LocalBindingFile(testbed.client, testbed.calibration)
    entry = BindingFileEntry(
        "DesiredService", "fiji.cs.washington.edu", str(testbed.fiji.address), 9999
    )
    _run(env, Replicator(testbed.internet, testbed.udp, [replica]).publish(
        testbed.client, entry
    ))
    binder = LocalFileBinder(testbed.client, replica, testbed.calibration)
    return _timed(env, binder.import_binding("DesiredService", "fiji.cs.washington.edu"))


def _reregistration_binding(seed: int) -> float:
    """Import through bindings reregistered into the Clearinghouse."""
    from repro.baselines.reregistration import ReregistrationBinder
    from repro.clearinghouse.client import ClearinghouseClient

    testbed = build_testbed(seed=seed)
    env = testbed.env
    store = ClearinghouseClient(
        testbed.client, testbed.tcp, testbed.ch_endpoint, CREDENTIALS
    )
    binder = ReregistrationBinder(testbed.client, store, "bindings", testbed.calibration)
    _run(env, binder.reregister(
        "DesiredService", "fiji.cs.washington.edu", str(testbed.fiji.address), 9999
    ))
    return _timed(env, binder.import_binding("DesiredService", "fiji.cs.washington.edu"))


def binding_baselines(seed: int = 51) -> ComparisonTable:
    """HNS binding against the two reregistration baselines, each to 2 %."""
    table = ComparisonTable("Section 3 binding baselines")
    table.add("interim replicated local files", 200.0, _local_file_binding(seed), 2.0)
    table.add(
        "reregistration into Clearinghouse", 166.0, _reregistration_binding(seed), 2.0
    )
    table.add(
        "HNS best case (all local, all hit)",
        104.0,
        measure_table_3_1_row(Arrangement.ALL_LOCAL, seed)[2],
        2.0,
    )
    table.add(
        "HNS worst case (all remote, all miss)",
        547.0,
        measure_table_3_1_row(Arrangement.ALL_REMOTE, seed)[0],
        2.0,
    )
    return table


def equation_1(seed: int = 3) -> ComparisonTable:
    """Equation (1)'s thresholds from the paper's estimates and from the
    measured Table 3.1 cells.

    The targets are the paper's arithmetic, 33/(547-261) and
    33/(225-147), which it rounds to 11 % and 42 %.  The measured-cell
    rows inherit the 8 % bound of the cells they are computed from.
    """
    table = ComparisonTable(
        "Equation (1) — extra hit fraction a remote placement needs", unit="%"
    )
    row5 = measure_table_3_1_row(Arrangement.ALL_REMOTE, seed)
    row4 = measure_table_3_1_row(Arrangement.REMOTE_NSMS, seed)
    for label, paper, model, tolerance in (
        ("remote HNS, paper's estimates", 11.5, ColocationModel(33, 547, 261), 0.4),
        ("remote NSMs, paper's estimates", 42.3, ColocationModel(33, 225, 147), 0.1),
        (
            "remote HNS, measured row 5 miss/HNS hit",
            11.5,
            ColocationModel(MEASURED_REMOTE_CALL_MS, row5[0], row5[1]),
            8.0,
        ),
        (
            "remote NSMs, measured row 4 HNS hit/both hit",
            42.3,
            ColocationModel(MEASURED_REMOTE_CALL_MS, row4[1], row4[2]),
            8.0,
        ),
    ):
        table.add(label, paper, 100 * model.q_threshold(), tolerance)
    return table


#: The paper's evaluation, in report order; each builds one table.
PAPER_TABLES = (table_3_1, table_3_2, headline_figures, binding_baselines, equation_1)


#: A measured row with no paper figure beside it: (quantity, value).
Claim = typing.Tuple[str, float]


def meta_ttl_sweep(seed: int = 92) -> typing.List[Claim]:
    """Twenty Imports 100 ms apart per meta TTL: short TTLs re-pay the
    miss cost on a refresh cadence, long ones amortise it."""
    rows: typing.List[Claim] = []
    for ttl in (200.0, 2_000.0, 3_600_000.0):
        calibration = dataclasses.replace(DEFAULT_CALIBRATION, meta_ttl_ms=ttl)
        testbed = build_testbed(seed=seed, calibration=calibration)
        stack = build_stack(testbed, Arrangement.ALL_LOCAL)
        env = testbed.env
        total = 0.0
        for _ in range(20):
            total += _timed(env, stack.importer.import_binding("DesiredService", FIJI))
            env.run(until=env.now + 100)
        rows.append((f"meta TTL {ttl:.0f} ms: mean Import", total / 20))
        rows.append((f"meta TTL {ttl:.0f} ms: meta hit ratio", stack.hns.metastore.cache.hit_ratio))
    return rows


def locality_sweep(seed: int = 93) -> typing.List[Claim]:
    """Sixty Zipf-drawn HostAddress lookups over 128 registered names:
    the specialised cache pays off as locality of reference rises."""
    from repro.bind.rr import ResourceRecord
    from repro.core.nsms.bind import BindHostAddressNSM
    from repro.workloads.generator import QueryWorkload

    names = [f"loc{i}.cs.washington.edu" for i in range(128)]
    population = [(HNSName("BIND-cs", name), "HostAddress", {}) for name in names]
    rows: typing.List[Claim] = []
    for s in (0.0, 1.0, 2.0):
        testbed = build_testbed(seed=seed)
        for i, name in enumerate(names):
            testbed.public_server.zones[0].add(ResourceRecord.a_record(name, f"10.1.0.{i}"))
        env = testbed.env
        hostaddr = testbed.make_nsm(BindHostAddressNSM, testbed.client)
        workload = QueryWorkload(
            env, population, mean_interarrival_ms=10, zipf_s=s, stream=f"loc{s}"
        )
        events = workload.generate(60)
        total = sum(_timed(env, hostaddr.query(event.hns_name)) for event in events)
        assert hostaddr.cache is not None
        rows.append((f"locality s={s:.0f}: mean HostAddress lookup", total / len(events)))
        rows.append((f"locality s={s:.0f}: hit ratio", hostaddr.cache.hit_ratio))
    return rows


def cache_capacity_sweep(seed: int = 97) -> typing.List[Claim]:
    """Eighty Zipf lookups over eight names per LRU capacity: an
    undersized cache thrashes, the working-set size restores hits."""
    from repro.bind.cache import ResolverCache
    from repro.bind.resolver import BindResolver
    from repro.workloads.generator import QueryWorkload

    hosts = ("fiji", "june", "ns0", "nsmhost", "hnshost", "agenthost", "client", "dlion")
    population = [
        (HNSName("BIND-cs", f"{h}.cs.washington.edu"), "HostAddress", {}) for h in hosts
    ]
    rows: typing.List[Claim] = []
    for capacity in (2, 6, None):
        testbed = build_testbed(seed=seed)
        env = testbed.env
        cache = ResolverCache(env, capacity=capacity, calibration=testbed.calibration)
        resolver = BindResolver(
            testbed.client,
            testbed.udp,
            testbed.public_endpoint,
            cache=cache,
            calibration=testbed.calibration,
        )
        workload = QueryWorkload(env, population, zipf_s=0.8, stream=f"cap{capacity}")
        for event in workload.generate(80):
            _run(env, resolver.lookup(event.hns_name.name))
        label = "unbounded" if capacity is None else capacity
        rows.append((f"cache capacity {label}: hit ratio", cache.hit_ratio))
        rows.append((f"cache capacity {label}: evictions", cache.evictions))
    return rows


def clearinghouse_decomposition(seed: int = 99) -> typing.List[Claim]:
    """Footnote 5: 'each access is authenticated, and virtually all data
    is retrieved from disk', turned off one at a time.  The lookup with
    both is the native Clearinghouse row above."""
    from repro.clearinghouse.client import ClearinghouseClient

    no_auth = {"ch_auth_cpu_ms": 0.0, "ch_auth_disk_ms": 0.0}
    in_memory = {"ch_data_disk_ms": 0.0}
    variants = {
        "no authentication": no_auth,
        "data in primary memory": in_memory,
        "neither (BIND-like)": {**no_auth, **in_memory, "ch_process_ms": 20.0},
    }
    rows: typing.List[Claim] = []
    for label, overrides in variants.items():
        calibration = dataclasses.replace(DEFAULT_CALIBRATION, **overrides)
        testbed = build_testbed(seed=seed, calibration=calibration)
        client = ClearinghouseClient(
            testbed.client, testbed.tcp, testbed.ch_endpoint, CREDENTIALS
        )
        rows.append((
            f"Clearinghouse lookup, {label}",
            _timed(testbed.env, client.lookup_address("dlion:hcs:uw")),
        ))
    return rows


def cache_format_under_load(seed: int = 95) -> typing.List[Claim]:
    """Table 3.2 end to end: with a hot meta cache, a marshalled one
    makes every FindNSM pay demarshalling again."""
    from repro.bind.cache import CacheFormat
    from repro.core.hns import HNS
    from repro.core.metastore import MetaStore
    from repro.core.nsms.bind import BindHostAddressNSM
    from repro.core.nsms.clearinghouse import ClearinghouseHostAddressNSM

    rows: typing.List[Claim] = []
    for fmt in (CacheFormat.DEMARSHALLED, CacheFormat.MARSHALLED):
        testbed = build_testbed(seed=seed)
        env = testbed.env
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
        _run(env, hns.find_nsm(FIJI, "HRPCBinding"))
        warm = sum(_timed(env, hns.find_nsm(FIJI, "HRPCBinding")) for _ in range(10))
        rows.append((f"warm FindNSM, {fmt.value} meta cache", warm / 10))
    return rows


def heterogeneity_sweep(seed: int = 94) -> typing.List[Claim]:
    """Cold FindNSM and the meta zone with extra system types
    registered: per-query cost stays flat, meta state grows linearly."""
    from repro.bind.rr import ResourceRecord
    from repro.bind.server import BindServer
    from repro.bind.zone import Zone
    from repro.core.admin import HnsAdministrator

    rows: typing.List[Claim] = []
    for extra in (0, 4, 12):
        testbed = build_testbed(seed=seed)
        admin = HnsAdministrator(testbed.make_metastore(testbed.meta_host))

        def add_system(i: int) -> typing.Generator[typing.Any, typing.Any, None]:
            zone = Zone(f"dept{i}.edu")
            zone.add(ResourceRecord.a_record(f"box.dept{i}.edu", "128.95.1.250"))
            BindServer(
                testbed.internet.add_host(f"sys{i}"), zones=[zone], name=f"bind{i}"
            ).listen()
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

        for i in range(extra):
            _run(testbed.env, add_system(i))
        hns = testbed.make_hns(testbed.client)
        cold = _timed(testbed.env, hns.find_nsm(FIJI, "HRPCBinding"))
        zone_bytes = testbed.meta_server.zones[0].wire_size()
        rows.append((f"+{extra} system types: cold FindNSM", cold))
        rows.append((f"+{extra} system types: meta zone bytes", zone_bytes))
    return rows


def broadcast_location(seed: int = 96) -> typing.List[Claim]:
    """One broadcast locate per segment size (§2's rejected multicast
    location): the client barely notices, the segment's CPU grows."""
    from repro.broadcast.locator import (
        ANSWER_COST_MS,
        EXAMINE_COST_MS,
        BroadcastLocator,
        NameOwnerService,
    )
    from repro.net.internet import Internetwork
    from repro.net.transport import DatagramTransport
    from repro.sim.kernel import Environment
    from repro.sim.latency import ConstantLatency

    rows: typing.List[Claim] = []
    for n_hosts in (8, 32, 96):
        env = Environment(seed=seed)
        net = Internetwork(env)
        segment = net.add_segment(latency=ConstantLatency(1.0, 0.0008))
        hosts = [net.add_host(f"h{i}", segment) for i in range(n_hosts)]
        owners = [NameOwnerService(host) for host in hosts[1:]]
        owners[-1].own("theservice", port=1)
        locator = BroadcastLocator(hosts[0], DatagramTransport(net), wait_ms=80)
        latency = _timed(env, locator.locate("theservice"))
        env.run()  # drain the stragglers' examinations
        aggregate = sum(
            o.examined * EXAMINE_COST_MS + o.answered * ANSWER_COST_MS for o in owners
        )
        rows.append((f"broadcast, {n_hosts} hosts: client latency", latency))
        rows.append((f"broadcast, {n_hosts} hosts: aggregate segment CPU", aggregate))
    return rows


def _makespan(subsystems: int, clients_each: int, centralized: bool, seed: int) -> float:
    """Concurrent lookups against a name server per subsystem, or
    against one server all their data is reregistered into."""
    from repro.bind.resolver import BindResolver
    from repro.bind.rr import ResourceRecord
    from repro.bind.server import BindServer
    from repro.bind.zone import Zone
    from repro.net.internet import Internetwork
    from repro.net.transport import DatagramTransport
    from repro.sim.kernel import Environment
    from repro.sim.latency import ConstantLatency

    env = Environment(seed=seed)
    net = Internetwork(env)
    segment = net.add_segment(latency=ConstantLatency(
        DEFAULT_CALIBRATION.wire_base_ms, DEFAULT_CALIBRATION.wire_per_byte_ms
    ))
    udp = DatagramTransport(net, retry_timeout_ms=100_000)
    zones = []
    for i in range(subsystems):
        zones.append(Zone(f"dept{i}.edu"))
        zones[-1].add(ResourceRecord.a_record(f"host.dept{i}.edu", f"10.{i}.0.1"))
    if centralized:
        server = BindServer(net.add_host("global-ns", segment), zones=zones, name="global")
        endpoints = [server.listen()] * subsystems
    else:
        endpoints = [
            BindServer(net.add_host(f"ns{i}", segment), zones=[zone], name=f"dept{i}").listen()
            for i, zone in enumerate(zones)
        ]
    done: typing.List[float] = []

    def client(i: int, k: int) -> typing.Generator[typing.Any, typing.Any, None]:
        resolver = BindResolver(
            net.add_host(f"c{i}-{k}", segment), udp, endpoints[i], name=f"r{i}-{k}"
        )
        address = yield from resolver.lookup_address(f"host.dept{i}.edu")
        assert address == f"10.{i}.0.1"
        done.append(env.now)

    for i in range(subsystems):
        for k in range(clients_each):
            env.process(client(i, k))
    env.run()
    assert len(done) == subsystems * clients_each
    return max(done)


def load_distribution(seed: int = 101) -> typing.List[Claim]:
    """§1/§2: 'the processing load is naturally distributed among the
    subsystems', against one reregistered store every client queues on."""
    rows: typing.List[Claim] = []
    for subsystems, clients_each in ((8, 4), (2, 2), (8, 2), (16, 2)):
        for centralized in (False, True):
            shape = "centralized" if centralized else "distributed"
            rows.append((
                f"makespan {subsystems} x {clients_each} clients: {shape}",
                _makespan(subsystems, clients_each, centralized, seed),
            ))
    return rows


def _fleet_find_nsm(
    seed: int, overlap: bool, shared: bool
) -> typing.Tuple[float, typing.Optional[float]]:
    """Six clients' FindNSMs, each over six contexts it touches once, so
    that only a cache shared across clients can hit.  ``shared`` puts
    one remote HNS service behind every client in place of a library
    linked into each.  Returns the mean latency and, when ``shared``,
    the shared meta cache's hit ratio."""
    from repro.core.admin import HnsAdministrator
    from repro.core.hns import serve_hns
    from repro.hrpc.binding import HRPCBinding
    from repro.hrpc.runtime import HrpcRuntime
    from repro.hrpc.server import HrpcServer
    from repro.net.addresses import Endpoint
    from repro.workloads.scenarios import BIND_NS, HNS_PORT

    clients, contexts = 6, 6
    testbed = build_testbed(seed=seed)
    env = testbed.env
    admin = HnsAdministrator(testbed.make_metastore(testbed.meta_host))

    def register() -> typing.Generator[typing.Any, typing.Any, None]:
        for i in range(clients * contexts):
            yield from admin.register_context(f"WL{i}", BIND_NS)

    _run(env, register())
    if shared:
        hns = testbed.make_hns(testbed.hns_host)
        server = HrpcServer(testbed.hns_host)
        serve_hns(hns, server)
        server.listen(HNS_PORT)
        binding = HRPCBinding(Endpoint(testbed.hns_host.address, HNS_PORT), "hns", suite="sunrpc")

        def connect(host: typing.Any) -> typing.Callable[[HNSName], typing.Any]:
            runtime = HrpcRuntime(host, testbed.internet)
            return lambda name: runtime.call(
                binding, "FindNSM", str(name), "HRPCBinding", timeout_ms=10_000
            )
    else:

        def connect(host: typing.Any) -> typing.Callable[[HNSName], typing.Any]:
            return functools.partial(testbed.make_hns(host).find_nsm, query_class="HRPCBinding")

    latencies: typing.List[float] = []

    def client(i: int) -> typing.Generator[typing.Any, typing.Any, None]:
        find_nsm = connect(testbed.internet.add_host(f"{'rc' if shared else 'lc'}{i}"))
        yield env.timeout(i * 3_000)  # arrivals spread out
        first = 0 if overlap else i * contexts
        for k in range(first, first + contexts):
            start = env.now
            yield from find_nsm(HNSName(f"WL{k}", "fiji.cs.washington.edu"))
            latencies.append(env.now - start)

    for i in range(clients):
        env.process(client(i))
    env.run()
    return sum(latencies) / len(latencies), hns.metastore.cache.hit_ratio if shared else None


def dynamic_hit_ratios() -> typing.List[Claim]:
    """§3's open question, 'the dynamic cache hit ratios achieved in
    practice': per-client HNS copies against one shared remote HNS, on
    workloads whose clients share every context or none."""
    rows: typing.List[Claim] = []
    for workload, overlap, seed in (("overlapping", True, 141), ("disjoint", False, 142)):
        local, _ = _fleet_find_nsm(seed, overlap, shared=False)
        remote, hit_ratio = _fleet_find_nsm(seed, overlap, shared=True)
        assert hit_ratio is not None
        rows.append((f"{workload} workloads: local HNS per FindNSM", local))
        rows.append((f"{workload} workloads: shared remote HNS per FindNSM", remote))
        rows.append((f"{workload} workloads: shared cache hit ratio", hit_ratio))
    return rows


#: The paper's arguments that print no figure, in report order; each
#: returns measured rows that tier-1 holds to the argument's relations.
CLAIMS = (
    clearinghouse_decomposition,
    load_distribution,
    broadcast_location,
    heterogeneity_sweep,
    meta_ttl_sweep,
    locality_sweep,
    cache_capacity_sweep,
    cache_format_under_load,
    dynamic_hit_ratios,
)


def claims_table(rows: typing.Sequence[Claim]) -> str:
    """The measured claim rows as one quantity/measured table."""
    return format_table(
        ["quantity", "measured"],
        [(label, _fmt_cell(value)) for label, value in rows],
        title="== The paper's arguments without a figure, measured ==",
    )


#: Metric display order for the ablation tables; anything else a grid
#: reports follows alphabetically.
_ABLATION_METRIC_ORDER = (
    "p50_ms",
    "p99_ms",
    "availability",
    "meta_queries_per_find",
    "staleness_ms_max",
    "storm_round_trips",
)


def _ablation_columns(runs: typing.Sequence[typing.Mapping[str, object]]) -> typing.List[str]:
    present: typing.Set[str] = set()
    for run in runs:
        metrics = run.get("metrics")
        if isinstance(metrics, dict):
            present.update(metrics)
    ordered = [m for m in _ABLATION_METRIC_ORDER if m in present]
    ordered += sorted(present - set(ordered))
    return ordered


def _fmt_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def ablation_tables(directory: typing.Optional[str] = None) -> str:
    """Render every committed ``BENCH_ablation_*.json`` as a table.

    One table per grid artifact: a row per run (baseline first, in the
    engine's expansion order) and, below it, the per-knob importance
    summary (p99 ratio vs baseline).  Artifacts with an unexpected
    schema version are skipped with a note rather than failing the
    report.
    """
    base = pathlib.Path(directory) if directory else pathlib.Path(".")
    sections: typing.List[str] = []
    for path in sorted(base.glob("BENCH_ablation_*.json")):
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except ValueError:
            sections.append(f"({path.name}: unreadable, skipped)")
            continue
        if not isinstance(data, dict) or data.get("schema_version") != SCHEMA_VERSION:
            sections.append(
                f"({path.name}: schema_version != {SCHEMA_VERSION}, skipped)"
            )
            continue
        runs = [r for r in data.get("runs", []) if isinstance(r, dict)]
        shape = "smoke" if data.get("smoke") else "full"
        columns = _ablation_columns(runs)
        lines = [f"== Ablation grid: {data.get('grid', '?')} ({shape}) =="]
        header = ["run"] + columns + ["digest"]
        lines.append(" | ".join(header))
        lines.append("-+-".join("-" * len(h) for h in header))
        for run in runs:
            metrics = run.get("metrics") or {}
            digest = run.get("digest") or ""
            cells = [str(run.get("key", "?"))]
            if run.get("status") == "ok":
                cells += [
                    _fmt_cell(metrics.get(column, "")) for column in columns
                ]
                cells.append(str(digest)[:12])
            else:
                cells += ["ERROR"] * len(columns) + ["-"]
            lines.append(" | ".join(cells))
        importance = data.get("importance")
        importance_lines: typing.List[str] = []
        if isinstance(importance, dict):
            for key in sorted(importance):
                entry = importance[key]
                if not isinstance(entry, dict):
                    continue
                # Lead with the tail metric when the grid reports one,
                # else the grid's dominant headline metric.
                for metric in ("p99_ms", "staleness_ms_max", "storm_round_trips"):
                    score = entry.get(metric)
                    if isinstance(score, dict):
                        break
                else:
                    continue
                ratio = score.get("ratio")
                delta = score.get("delta")
                ratio_text = (
                    f"{ratio:.2f}x" if isinstance(ratio, (int, float)) else "n/a"
                )
                importance_lines.append(
                    f"  {key:<24} {metric} {ratio_text} "
                    f"({delta:+.2f} vs baseline)"
                )
        if importance_lines:
            lines.append("")
            lines.append("knob importance vs baseline:")
            lines.extend(importance_lines)
        sections.append("\n".join(lines))
    if not sections:
        sections.append(
            "(no BENCH_ablation_*.json artifacts found; run "
            "`python -m repro.cli bench all` to generate them)"
        )
    return "\n\n".join(sections)


def generate_report(ablation_dir: typing.Optional[str] = None) -> str:
    """The full report as markdown text."""
    sections = [
        "# HNS reproduction report",
        "",
        "Values are simulated milliseconds unless a table says otherwise.  "
        "Each paper row shows the deviation it is allowed (`tol %`), and "
        "tier-1 fails when a row leaves it; EXPERIMENTS.md discusses "
        "the paper's own internal inconsistencies.  The table after the "
        "paper's measures the arguments it makes without a figure; "
        "tier-1 holds each of its rows to the relation argued.",
        "",
        "This file is a generated artifact: regenerate it with "
        "`PYTHONPATH=src python -m repro.harness.report RESULTS.md`.  The "
        "ablation tables below read the committed "
        "`BENCH_ablation_*.json` artifacts (emitted by `python -m "
        "repro.cli bench`), which double as the CI perf gate's "
        "baselines (`python -m repro.harness.gate`).",
        "",
        *(part for build in PAPER_TABLES for part in (build().render(), "")),
        claims_table([row for build in CLAIMS for row in build()]),
        "",
        ablation_tables(ablation_dir),
        "",
    ]
    return "\n".join(sections)


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    """Print the report, or write it to the given path."""
    argv = list(sys.argv[1:] if argv is None else argv)
    report = generate_report()
    if argv:
        with open(argv[0], "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        print(f"wrote {argv[0]}")
    else:
        print(report)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
