"""The FindNSM fast path: what each mechanism buys.

The :class:`~repro.resolution.FastPathPolicy` layer (single-flight
coalescing, refresh-ahead renewal, batched meta lookups) is a
performance extension beyond the paper's prototype; these benches
measure it with each mechanism ablated independently:

1. cold round trips — requests per cold FindNSM with batched meta
   lookups (one chained batch + one addr lookup = 2) vs the paper's
   six sequential mappings;
2. a TTL-expiry thundering herd — concurrent clients re-resolving the
   same name the instant its meta entries expire, with and without
   coalescing;
3. a Zipf workload — p50/p99 FindNSM latency and meta-server queries
   per resolution under concurrent closed-loop clients, comparing each
   ablation against an all-hit steady state.  This one is a thin
   definition over the registered ``fast_path`` ablation grid: the
   workload body lives in :func:`repro.harness.grids.run_fast_path`
   and the knob registry in
   :data:`repro.harness.grids.FAST_PATH_GRID`.

Set ``REPRO_BENCH_SMOKE=1`` for a reduced configuration (CI smoke).
"""

import dataclasses
import os

import pytest

from repro.harness import AblationStudy, DEFAULT_CALIBRATION
from repro.harness.ablation import BASELINE_KEY
from repro.harness.grids import FAST_PATH_GRID
from repro.resolution import (
    DEFAULT_RESOLUTION_POLICY,
    FastPathPolicy,
    PolicySet,
)
from repro.workloads import build_testbed

from conftest import FIJI, run, write_bench_results

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

#: The ablation grid: every mechanism off by itself, plus the endpoints.
CONFIGS = (
    ("full", FastPathPolicy()),
    ("no coalescing", FastPathPolicy(coalesce=False)),
    ("no refresh", FastPathPolicy(refresh_ahead_fraction=0.0)),
    ("no batching", FastPathPolicy(batch_meta_lookups=False)),
    ("disabled", FastPathPolicy.disabled()),
)


def percentile(samples, p):
    """Linear-interpolated percentile of a non-empty sample list."""
    if not samples:
        return float("nan")
    ordered = sorted(samples)
    k = (len(ordered) - 1) * (p / 100.0)
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def idle(env, ms):
    """Advance simulated time by ``ms`` with nothing else scheduled."""

    def sleeper():
        yield env.timeout(ms)

    run(env, sleeper())


def server_requests(env):
    """Datagrams seen by both name servers (a batch counts once)."""
    return (
        env.stats.counter("bind.meta-bind.requests").value
        + env.stats.counter("bind.public-bind.requests").value
    )


# ----------------------------------------------------------------------
# 1. Cold round trips
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="fast_path")
def test_cold_round_trips(benchmark):
    """A cold FindNSM is six request/response exchanges in the paper's
    prototype (five meta lookups plus the native HostAddress lookup);
    with batched meta lookups it is two (one chained batch covering
    mappings 1-3, one meta addr lookup covering 4-6)."""

    def measure():
        table = {}
        for label, fast_path in CONFIGS:
            testbed = build_testbed(seed=31)
            env = testbed.env
            hns = testbed.make_hns(
                testbed.client,
                policies=PolicySet(
                    resolution=DEFAULT_RESOLUTION_POLICY, fast_path=fast_path
                ),
            )
            before = server_requests(env)
            binding = run(env, hns.find_nsm(FIJI, "HRPCBinding"))
            table[label] = {
                "requests": server_requests(env) - before,
                "meta_queries": env.stats.counter(
                    "bind.meta-bind.queries"
                ).value,
                "program": binding.program,
            }
        return table

    table = benchmark(measure)
    write_bench_results("fast_path", "cold_round_trips", table)
    print("\nrequests per cold FindNSM:")
    for label, row in table.items():
        print(
            f"  {label:<15} {row['requests']} requests "
            f"({row['meta_queries']} meta DB queries) -> {row['program']}"
        )
    # Acceptance: <=2 round trips batched, exactly the paper's 6 without,
    # and both produce the same binding.
    for label, row in table.items():
        batched = "batching" not in label and label != "disabled"
        if batched:
            assert row["requests"] <= 2, (label, row)
        assert row["program"] == table["disabled"]["program"]
    assert table["disabled"]["requests"] == 6
    assert table["no batching"]["requests"] == 6


# ----------------------------------------------------------------------
# 2. TTL-expiry thundering herd
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="fast_path")
def test_ttl_expiry_herd(benchmark):
    """When a popular name's meta entries expire, every concurrent
    client misses at once; single-flight coalescing sends one renewal
    per mapping and parks the rest on it."""
    CLIENTS = 8 if SMOKE else 16
    CALIBRATION = dataclasses.replace(DEFAULT_CALIBRATION, meta_ttl_ms=5_000)
    HERD_CONFIGS = (
        (
            "coalescing",
            FastPathPolicy(refresh_ahead_fraction=0.0, batch_meta_lookups=False),
        ),
        ("disabled", FastPathPolicy.disabled()),
    )

    def measure():
        table = {}
        for label, fast_path in HERD_CONFIGS:
            testbed = build_testbed(seed=32, calibration=CALIBRATION)
            env = testbed.env
            hns = testbed.make_hns(
                testbed.client,
                policies=PolicySet(
                    resolution=DEFAULT_RESOLUTION_POLICY, fast_path=fast_path
                ),
            )
            run(env, hns.find_nsm(FIJI, "HRPCBinding"))  # warm everything
            idle(env, 6_000)  # past every meta TTL
            before = server_requests(env)
            done = []
            latencies = []

            def one_find():
                start = env.now
                yield from hns.find_nsm(FIJI, "HRPCBinding")
                latencies.append(env.now - start)
                done.append(1)

            for _ in range(CLIENTS):
                env.process(one_find())
            idle(env, 30_000)
            assert len(done) == CLIENTS
            table[label] = {
                "requests": server_requests(env) - before,
                "coalesced": env.stats.counter(
                    "cache.hns-meta@client.coalesced"
                ).value,
                "p50_ms": percentile(latencies, 50),
                "p99_ms": percentile(latencies, 99),
            }
        return table

    table = benchmark(measure)
    write_bench_results("fast_path", "ttl_expiry_herd", table)
    print(f"\nTTL-expiry herd ({CLIENTS} concurrent FindNSMs):")
    for label, row in table.items():
        print(
            f"  {label:<12} {row['requests']:3d} requests, "
            f"{row['coalesced']:3d} coalesced, "
            f"p50 {row['p50_ms']:7.1f} ms, p99 {row['p99_ms']:7.1f} ms"
        )
    herd = table["coalescing"]
    baseline = table["disabled"]
    # Acceptance: coalescing cuts duplicate renewals by >=5x — and at
    # minimum saves *something*, which is what the CI smoke run checks.
    assert herd["requests"] < baseline["requests"]
    assert baseline["requests"] >= 5 * herd["requests"]
    assert herd["coalesced"] > 0


# ----------------------------------------------------------------------
# 3. Zipf workload: the registered ablation grid
# ----------------------------------------------------------------------
@pytest.mark.benchmark(group="fast_path")
def test_zipf_latency_distribution(benchmark):
    """Closed-loop clients resolving Zipf-distributed contexts against
    a short meta TTL, one run per knob assignment of the registered
    ``fast_path`` grid.  Refresh-ahead renews popular entries before
    they expire, so the latency tail stays at cache-hit cost instead of
    absorbing periodic re-resolutions."""
    study = AblationStudy(FAST_PATH_GRID, smoke=SMOKE)
    specs = study.expand()

    def measure():
        return study.execute(specs)

    results = benchmark(measure)
    failed = [r.spec.key for r in results if not r.ok]
    assert not failed, failed
    rows = {r.spec.key: r.metrics for r in results}
    write_bench_results(
        "fast_path",
        "zipf_latency_distribution",
        {"runs": rows, "importance": study.importance(results)},
    )
    print(f"\nZipf fast-path grid ({len(results)} runs):")
    for key, row in rows.items():
        print(
            f"  {key:<24} {row['finds']:6.0f} finds, "
            f"p50 {row['p50_ms']:6.1f} ms, p99 {row['p99_ms']:7.1f} ms, "
            f"{row['meta_queries_per_find']:.2f} meta queries/find, "
            f"avail {row['availability']:.3f}"
        )
    full = rows[BASELINE_KEY]
    reference = rows["reference"]
    # Acceptance (full config only — the reduced smoke run lacks the
    # sample count for stable tail percentiles): with refresh-ahead the
    # tail stays within 2x of the steady-state cache-hit tail; without
    # it, expiry re-resolutions surface in p99.
    if not SMOKE:
        assert full["p99_ms"] <= 2.0 * reference["p99_ms"]
        assert rows["fast_path=no_refresh"]["p99_ms"] > full["p99_ms"]
    # The fast path also does strictly less meta-server work per find
    # than the sequential prototype under the same load.
    assert (
        full["meta_queries_per_find"]
        < rows["fast_path=disabled"]["meta_queries_per_find"]
    )
