"""CI's ``perf-gate`` job in-process, plus what each gated grid claims.

One fixture runs the five gated grids the way CI does (``repro.cli
bench all --smoke``); the first test gates the fresh artifacts against
the committed ``BENCH_ablation_*.json`` baselines, the rest assert each
extension's acceptance claims on the fresh rows (the runner docstrings
in ``repro.harness.grids`` describe the workloads).  This is the one
place those claims are stated.
"""

import json
import pathlib

import pytest

from repro import cli
from repro.bind.replica import ReplicaScheduler
from repro.harness import AblationStudy, gate
from repro.harness.ablation import BASELINE_KEY
from repro.harness.grids import FAST_PATH_GRID, GRIDS, REPLICA_GRID

ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def fresh_dir(tmp_path_factory):
    """A directory holding a fresh smoke-shaped artifact per gated grid."""
    out = tmp_path_factory.mktemp("fresh-bench")
    argv = ["bench", "all", "--smoke", "--out-dir", str(out)]
    assert cli.main(argv) == 0  # non-zero: some run errored
    return out


def rows(fresh_dir, grid):
    """{run key: metrics} of one fresh artifact."""
    artifact = json.loads((fresh_dir / f"BENCH_ablation_{grid}.json").read_text())
    return {run["key"]: run["metrics"] for run in artifact["runs"]}


def test_fresh_grids_pass_the_gate_against_committed_baselines(fresh_dir, capsys):
    status = gate.main(["--fresh", str(fresh_dir), "--baseline", str(ROOT)])
    out = capsys.readouterr().out
    assert status == 0, out
    for grid in GRIDS:
        assert f"compared BENCH_ablation_{grid}.json" in out


def test_fast_path_claims(fresh_dir):
    smoke = rows(fresh_dir, "fast_path")
    # The fast path also does strictly less meta-server work per find
    # than the sequential prototype under the same load.
    assert (
        smoke[BASELINE_KEY]["meta_queries_per_find"]
        < smoke["fast_path=disabled"]["meta_queries_per_find"]
    )
    # Coalescing: when 64 clients' misses overlap, merging them cuts
    # the meta queries per find and the tail at least 2x, and more
    # finds complete in the same time.
    herd, no_coalescing = smoke["load=herd"], smoke["no_coalescing@herd"]
    assert herd["meta_queries_per_find"] <= no_coalescing["meta_queries_per_find"] / 2.0
    assert herd["p99_ms"] <= no_coalescing["p99_ms"] / 2.0
    assert herd["finds"] > no_coalescing["finds"]
    # Batching is a trade: two round trips in place of six cut the
    # median, but without them the tail is lower.
    no_batching = smoke["fast_path=no_batching"]
    assert no_batching["p50_ms"] > smoke[BASELINE_KEY]["p50_ms"]
    assert no_batching["p99_ms"] < smoke[BASELINE_KEY]["p99_ms"]
    study = AblationStudy(FAST_PATH_GRID, smoke=False)
    wanted = (BASELINE_KEY, "fast_path=no_refresh", "reference")
    results = study.execute([s for s in study.expand() if s.key in wanted])
    assert all(r.ok for r in results), [r.error for r in results if not r.ok]
    full_shape = {r.spec.key: r.metrics for r in results}
    full = full_shape[BASELINE_KEY]
    reference = full_shape["reference"]
    # Acceptance (full config only — the reduced smoke run lacks the
    # sample count for stable tail percentiles): with refresh-ahead the
    # tail stays within 2x of the steady-state cache-hit tail; without
    # it, expiry re-resolutions surface in p99.
    assert full["p99_ms"] <= 2.0 * reference["p99_ms"]
    assert full_shape["fast_path=no_refresh"]["p99_ms"] > full["p99_ms"]


# What each replica mechanism wins (keys: ``fault=<fault>`` is the whole
# policy, ``ordered@<fault>`` the prototype's walk under that fault).
def selection_wins(grid):
    """A primary 30 ms slower than its peers: selection moves the reads
    off it, where the ordered walk pays it on every lookup (a hedge
    timer learns the slow primary's latency and never fires)."""
    return grid["fault=slow_primary"]["p50_ms"] <= grid["ordered@slow_primary"]["p50_ms"] / 2.0


def hedging_wins(grid):
    """Every replica stalls now and then, so no replica is the one to
    avoid: only a hedge rescues a stalled lookup before the transport
    timeout."""
    return grid["fault=stall_all"]["p99_ms"] <= grid["ordered@stall_all"]["p99_ms"] / 2.0


def smoke_cells(*keys):
    """{run key: metrics} of the named smoke cells of the replica grid."""
    study = AblationStudy(REPLICA_GRID, smoke=True)
    results = study.execute([s for s in study.expand() if s.key in keys])
    assert all(r.ok for r in results), [r.error for r in results if not r.ok]
    return {r.spec.key: r.metrics for r in results}


def test_replica_scheduling_claims(fresh_dir):
    grid = rows(fresh_dir, "replica_scheduling")
    assert selection_wins(grid)
    assert hedging_wins(grid)
    # A crashed primary: the first lookup to meet it is hedged, and its
    # timeout pushes it to the back of every plan.
    assert grid["fault=crash_primary"]["p99_ms"] <= grid["ordered@crash_primary"]["p99_ms"] / 2.0
    # A healthy replica set draws no hedge: one request per lookup.
    assert grid["fault=healthy"]["hedges"] == 0
    assert grid["fault=healthy"]["legs_per_lookup"] <= 1.05
    # An exchange fails only once every replica has been tried.
    for key, metrics in grid.items():
        assert metrics["availability"] == 1.0, key


def test_replica_claims_fail_without_selection(monkeypatch):
    monkeypatch.setattr(ReplicaScheduler, "plan", lambda self: list(self.states))
    assert not selection_wins(smoke_cells("fault=slow_primary", "ordered@slow_primary"))


def test_replica_claims_fail_without_hedging(monkeypatch):
    monkeypatch.setattr(ReplicaScheduler, "hedge_delay_ms", lambda self: None)
    assert not hedging_wins(smoke_cells("fault=stall_all", "ordered@stall_all"))


def test_update_path_claims(fresh_dir):
    grid = rows(fresh_dir, "update_path")
    notify = grid[BASELINE_KEY]
    lease = grid["invalidation=lease"]
    ttl = grid["invalidation=ttl"]
    prototype = grid["batch=off"]
    # The staleness acceptance bar: each invalidation mode cuts the
    # window at least 5x against pure TTL expiry, and push beats
    # polling the lease out.
    assert ttl["staleness_ms_max"] / lease["staleness_ms_max"] >= 5.0
    assert ttl["staleness_ms_max"] / notify["staleness_ms_max"] >= 5.0
    assert notify["staleness_ms_max"] < lease["staleness_ms_max"]
    # The storm acceptance bar: the prototype pays one round trip per
    # record; the batched pipeline coalesces the window at least 4x.
    assert prototype["storm_round_trips"] == prototype["storm_ops"]
    assert notify["storm_round_trips"] < notify["storm_ops"]
    assert notify["storm_round_trips"] <= notify["storm_ops"] / 4.0


def test_discovery_claims(fresh_dir):
    grid = rows(fresh_dir, "discovery")
    live = grid[BASELINE_KEY]
    ttl_only = grid["watchdog=ttl_only"]
    # Acceptance: liveness eviction beats TTL-only on how long queries
    # keep serving a vanished owner's binding, and on how many stale
    # answers escape overall.
    assert (
        live["staleness_after_vanish_ms"]
        < ttl_only["staleness_after_vanish_ms"]
    )
    assert live["stale_serves"] < ttl_only["stale_serves"]
    assert live["availability"] > ttl_only["availability"]
    # The watchdog actually fired: evictions happened before any TTL
    # could expire (the TTL-only arm never evicts mid-outage).
    assert live["evictions"] > 0


def test_resolution_claims(fresh_dir):
    """Each surviving ResolutionPolicy knob buys something under the
    fault it exists for (keys: ``fault=<fault>`` is the whole policy,
    ``<knob>_<value>@<fault>`` that one knob at its disabled value)."""
    grid = rows(fresh_dir, "resolution")
    # Retry (attempts 4): an 8 s NSM-host crash is ridden out; one try
    # loses most of the Imports issued while the host is down.
    assert grid["fault=crash_nsm"]["availability"] >= 0.99
    assert grid["retry_x1@crash_nsm"]["availability"] <= 0.5
    # Serve-stale (120 s): a 30 s partition of the meta primary outlasts
    # an Import's four tries (about 8 s); stale answers keep every Import
    # answered and shorten the wait, where without them a quarter or
    # more fail.
    stale, no_stale = grid["fault=partition_meta"], grid["stale_off@partition_meta"]
    assert stale["stale_serves"] > 0 and no_stale["stale_serves"] == 0
    assert stale["availability"] >= 0.99
    assert no_stale["availability"] <= 0.9 * stale["availability"]
    assert no_stale["p99_ms"] >= 1.1 * stale["p99_ms"]
    # Negative caching (30 s): when a third of the names do not exist,
    # the misses stop costing a meta round trip each.
    assert (
        grid["negative_off@nxdomain"]["remote_queries_per_op"]
        >= 1.2 * grid["fault=nxdomain"]["remote_queries_per_op"]
    )
    # Every fault-free cell answers everything; 10 % loss each way is
    # the transport's to absorb, with or without policy retries.
    for key in ("baseline", "fault=drop_p10", "retry_x1@drop_p10"):
        assert grid[key]["availability"] == 1.0, key
