"""Replica-aware meta reads: what scheduling, hedging, and IXFR buy.

The :class:`~repro.resolution.ReplicaPolicy` layer is a performance
extension beyond the paper's prototype, whose resolver walks a static
primary-then-secondaries list and whose replicas refresh by full zone
transfer.  Two benches measure it against that baseline:

1. tail latency with one degraded replica — closed-loop lookups against
   a three-replica set whose primary intermittently stalls past the
   transport timeout; hedged + adaptive selection vs the prototype's
   ordered failover (``ReplicaPolicy.disabled()``).  This one is a
   thin definition over the registered ``replica_scheduling`` ablation
   grid (:func:`repro.harness.grids.run_replica_scheduling`);
2. refresh cost vs churn — the simulated cost of a secondary refresh
   and of a cache re-preload as a function of how many records changed,
   incremental (IXFR) vs full (AXFR) transfer.

Set ``REPRO_BENCH_SMOKE=1`` for a reduced configuration (CI smoke).
"""

import os

import pytest

from repro.bind import BindResolver, BindServer, ResourceRecord, RRType, SecondaryBindServer, Zone
from repro.bind.cache import ResolverCache
from repro.harness import AblationStudy, DEFAULT_CALIBRATION
from repro.harness.ablation import BASELINE_KEY
from repro.harness.grids import REPLICA_GRID
from repro.net import DatagramTransport, Internetwork
from repro.resolution import PolicySet, ReplicaPolicy
from repro.sim import ConstantLatency, Environment

from conftest import run, write_bench_results

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
CAL = DEFAULT_CALIBRATION


def rec(name, text, ttl=3_600_000):
    return ResourceRecord.text_record(name, text, rtype=RRType.UNSPEC, ttl=ttl)


# ----------------------------------------------------------------------
# 1. Tail latency with one degraded replica
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="replica_scheduling")
def test_tail_latency_one_degraded_replica(benchmark):
    """The prototype's ordered failover pays the full transport timeout
    every time the (always-first) primary stalls; a hedged query
    re-issues after the latency quantile and takes the secondary's
    answer instead, so the degradation never reaches the tail.  One
    run per knob assignment of the registered ``replica_scheduling``
    grid (replica scheduling x primary health)."""
    study = AblationStudy(REPLICA_GRID, smoke=SMOKE)
    specs = study.expand()

    def measure():
        return study.execute(specs)

    results = benchmark(measure)
    failed = [r.spec.key for r in results if not r.ok]
    assert not failed, failed
    rows = {r.spec.key: r.metrics for r in results}
    write_bench_results(
        "replica_scheduling",
        "tail_latency_one_degraded_replica",
        {"runs": rows, "importance": study.importance(results)},
    )
    print(f"\nreplica-scheduling grid ({len(results)} runs):")
    for key, row in rows.items():
        print(
            f"  {key:<16} p50 {row['p50_ms']:6.1f} ms, "
            f"p99 {row['p99_ms']:6.1f} ms, max {row['max_ms']:6.1f} ms, "
            f"{row['hedges']:4.0f} hedges, {row['failovers']:3.0f} failovers"
        )
    hedged = rows[BASELINE_KEY]
    ordered = rows["replica=ordered"]
    healthy = rows["primary=healthy"]
    # Acceptance: hedging cuts the degraded-replica p99 by >=2x and
    # actually fired; the ordered baseline eats the transport timeout.
    assert hedged["hedges"] > 0
    assert hedged["p99_ms"] <= ordered["p99_ms"] / 2.0
    assert ordered["p99_ms"] >= 100.0
    # With a healthy primary there is nothing to hedge around: the
    # gain comes from masking the degradation, not a free speedup.
    assert healthy["p99_ms"] <= hedged["p99_ms"]


# ----------------------------------------------------------------------
# 2. Refresh cost vs churn: IXFR vs AXFR
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="replica_scheduling")
def test_refresh_cost_vs_churn(benchmark):
    """A full AXFR refresh costs the same whether one record changed or
    a hundred; an incremental refresh streams and installs only the
    journal delta, so its steady-state cost is proportional to churn."""
    ZONE_RECORDS = 120 if SMOKE else 300
    CHURN_LEVELS = (1, 5, 25, 100)

    def build_replicated(replica_policy):
        env = Environment(seed=62)
        net = Internetwork(env)
        seg = net.add_segment(
            latency=ConstantLatency(CAL.wire_base_ms, CAL.wire_per_byte_ms)
        )
        net.add_host("client", seg)
        primary_host = net.add_host("ns-primary", seg)
        secondary_host = net.add_host("ns-secondary", seg)
        zone = Zone("hns")
        for i in range(ZONE_RECORDS):
            zone.add(rec(f"x{i}.ctx.hns", f"ns=x{i}"))
        primary = BindServer(
            primary_host,
            zones=[zone],
            allow_dynamic_update=True,
            lookup_cost_ms=CAL.meta_bind_lookup_ms,
        )
        primary_ep = primary.listen()
        udp = DatagramTransport(net, retries=0, retry_timeout_ms=100)
        secondary = SecondaryBindServer(
            secondary_host,
            primary_ep,
            origins=["hns"],
            transport=udp,
            refresh_ms=60_000,
            lookup_cost_ms=CAL.meta_bind_lookup_ms,
            replica_policy=replica_policy,
        )
        secondary.listen()
        run(env, secondary.refresh_once())  # initial (full) sync
        return env, zone, secondary

    def churn(zone, updates, round_index):
        # Replace, not add: the zone size stays fixed while the journal
        # accumulates exactly ``updates`` deltas.
        for i in range(updates):
            zone.replace(
                f"x{i}.ctx.hns",
                RRType.UNSPEC,
                [rec(f"x{i}.ctx.hns", f"ns=x{i}-r{round_index}")],
            )

    def refresh_cost(replica_policy, updates):
        env, zone, secondary = build_replicated(replica_policy)
        churn(zone, updates, 1)
        start = env.now
        run(env, secondary.refresh_once())
        return env.now - start

    def preload_costs():
        """Full preload vs IXFR re-preload after a small churn."""
        env, zone, secondary = build_replicated(ReplicaPolicy.disabled())
        cache = ResolverCache(env, name="preload")
        preloader = BindResolver(
            secondary.host,
            secondary.transport,
            secondary.primary,
            cache=cache,
            policies=PolicySet(replica=ReplicaPolicy()),
            name="preloader",
        )
        start = env.now
        run(env, preloader.preload_cache("hns"))
        full_ms = env.now - start
        churn(zone, 5, 2)
        start = env.now
        run(env, preloader.preload_cache("hns"))
        incremental_ms = env.now - start
        return {"full_ms": full_ms, "incremental_ms_churn5": incremental_ms}

    def measure():
        table = {
            "ixfr": {
                str(level): refresh_cost(ReplicaPolicy(), level)
                for level in CHURN_LEVELS
            },
            "axfr": {
                str(level): refresh_cost(ReplicaPolicy.disabled(), level)
                for level in CHURN_LEVELS
            },
            "preload": preload_costs(),
        }
        return table

    table = benchmark(measure)
    write_bench_results("replica_scheduling", "refresh_cost_vs_churn", table)
    print(f"\nsecondary refresh cost ({ZONE_RECORDS}-record zone):")
    print("  churn    IXFR (ms)    AXFR (ms)")
    for level in CHURN_LEVELS:
        print(
            f"  {level:>5} {table['ixfr'][str(level)]:>11.1f} "
            f"{table['axfr'][str(level)]:>12.1f}"
        )
    preload = table["preload"]
    print(
        f"  cache preload: full {preload['full_ms']:.1f} ms, "
        f"incremental (churn 5) {preload['incremental_ms_churn5']:.1f} ms"
    )
    ixfr = {int(k): v for k, v in table["ixfr"].items()}
    axfr = {int(k): v for k, v in table["axfr"].items()}
    # Acceptance: the incremental refresh is far cheaper than a full
    # transfer at low churn and scales with the number of changed
    # records, while AXFR cost is flat (it re-ships the whole zone).
    assert ixfr[1] < axfr[1] / 5.0
    assert ixfr[1] < ixfr[25] < ixfr[100]
    assert max(axfr.values()) < 1.5 * min(axfr.values())
    # The incremental cache re-preload beats the full preload the same
    # way (the paper's ~390 ms preload is the cost being avoided).
    assert preload["incremental_ms_churn5"] < preload["full_ms"] / 5.0
