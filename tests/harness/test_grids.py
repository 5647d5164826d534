"""CI's ``perf-gate`` job in-process, plus what each gated grid claims.

One fixture runs the four gated grids the way CI does (``repro.cli
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
from repro.harness import AblationStudy, gate
from repro.harness.ablation import BASELINE_KEY
from repro.harness.grids import FAST_PATH_GRID, GATED_GRIDS

ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def fresh_dir(tmp_path_factory):
    """A directory holding a fresh smoke-shaped artifact per gated grid."""
    out = tmp_path_factory.mktemp("fresh-bench")
    argv = ["bench", "all", "--smoke", "--jobs", "1", "--out-dir", str(out)]
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
    for grid in GATED_GRIDS:
        assert f"compared BENCH_ablation_{grid}.json" in out


def test_fast_path_claims(fresh_dir):
    smoke = rows(fresh_dir, "fast_path")
    # The fast path also does strictly less meta-server work per find
    # than the sequential prototype under the same load.
    assert (
        smoke[BASELINE_KEY]["meta_queries_per_find"]
        < smoke["fast_path=disabled"]["meta_queries_per_find"]
    )
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


def test_replica_scheduling_claims(fresh_dir):
    grid = rows(fresh_dir, "replica_scheduling")
    hedged = grid[BASELINE_KEY]
    ordered = grid["replica=ordered"]
    healthy = grid["primary=healthy"]
    # Acceptance: hedging cuts the degraded-replica p99 by >=2x and
    # actually fired; the ordered baseline eats the transport timeout.
    assert hedged["hedges"] > 0
    assert hedged["p99_ms"] <= ordered["p99_ms"] / 2.0
    assert ordered["p99_ms"] >= 100.0
    # With a healthy primary there is nothing to hedge around: the
    # gain comes from masking the degradation, not a free speedup.
    assert healthy["p99_ms"] <= hedged["p99_ms"]


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
