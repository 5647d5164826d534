"""The perf-regression gate: digests pin trajectories, p99 pins tails.

The fixtures build small schema-v2 artifacts by hand and doctor them
the way a real regression would: a changed digest, a fattened p99, a
dropped availability.  The gate must fail on each, pass on an
identical pair, and ignore every wall-clock field.
"""

import copy
import json

import pytest

from repro.harness.gate import (
    Violation,
    compare_artifacts,
    load_artifact,
    main,
    run_gate,
)


def artifact(smoke=True):
    """A minimal schema-v2 ablation artifact with two runs."""
    return {
        "schema_version": 2,
        "bench": "ablation_toy",
        "grid": "toy",
        "smoke": smoke,
        "jobs": 1,
        "cpus": 1,
        "wall_s": 1.0,
        "vs_baseline": None,
        "runs": [
            {
                "key": "baseline",
                "knobs": {"k": "on"},
                "seed": 1,
                "status": "ok",
                "digest": "aaa111",
                "sim_ms": 50.0,
                "wall_s": 0.1,
                "metrics": {"p99_ms": 10.0, "availability": 1.0},
            },
            {
                "key": "k=off",
                "knobs": {"k": "off"},
                "seed": 2,
                "status": "ok",
                "digest": "bbb222",
                "sim_ms": 60.0,
                "wall_s": 0.1,
                "metrics": {"p99_ms": 40.0, "availability": 0.98},
            },
        ],
        "importance": {},
    }


def test_identical_artifacts_pass():
    assert compare_artifacts("a.json", artifact(), artifact()) == []


def test_wall_clock_changes_never_violate():
    fresh = artifact()
    fresh["wall_s"] = 99.0
    fresh["jobs"] = 16
    fresh["cpus"] = 16
    fresh["runs"][0]["wall_s"] = 42.0
    assert compare_artifacts("a.json", fresh, artifact()) == []


def test_p99_regression_beyond_tolerance_fails():
    fresh = artifact()
    fresh["runs"][0]["metrics"]["p99_ms"] = 11.5  # +15% > 10%
    violations = compare_artifacts("a.json", fresh, artifact())
    assert [v.kind for v in violations] == ["p99"]
    assert "regressed" in violations[0].message
    # The same doctored value passes under a looser bar.
    assert (
        compare_artifacts("a.json", fresh, artifact(), p99_tolerance_pct=20.0)
        == []
    )


def test_p99_within_tolerance_and_improvements_pass():
    fresh = artifact()
    fresh["runs"][0]["metrics"]["p99_ms"] = 10.9  # +9% < 10%
    fresh["runs"][1]["metrics"]["p99_ms"] = 5.0  # improvement
    assert compare_artifacts("a.json", fresh, artifact()) == []


def test_availability_drop_fails_one_sided():
    fresh = artifact()
    fresh["runs"][1]["metrics"]["availability"] = 0.80  # -18%
    violations = compare_artifacts("a.json", fresh, artifact())
    assert [v.kind for v in violations] == ["availability"]
    # A rise never violates.
    fresh["runs"][1]["metrics"]["availability"] = 1.0
    assert compare_artifacts("a.json", fresh, artifact()) == []


def test_digest_change_fails_even_with_identical_metrics():
    fresh = artifact()
    fresh["runs"][1]["digest"] = "ccc333"
    violations = compare_artifacts("a.json", fresh, artifact())
    assert [v.kind for v in violations] == ["digest"]
    assert "trajectory changed" in violations[0].message


def test_missing_run_fails():
    fresh = artifact()
    del fresh["runs"][1]
    kinds = {v.kind for v in compare_artifacts("a.json", fresh, artifact())}
    assert "missing" in kinds


def test_smoke_flag_mismatch_is_a_schema_violation():
    violations = compare_artifacts(
        "a.json", artifact(smoke=True), artifact(smoke=False)
    )
    assert [v.kind for v in violations] == ["schema"]
    assert "smoke" in violations[0].message


def test_nan_metrics_are_skipped():
    fresh, base = artifact(), artifact()
    fresh["runs"][0]["metrics"]["p99_ms"] = float("nan")
    base["runs"][0]["metrics"]["p99_ms"] = float("nan")
    assert compare_artifacts("a.json", fresh, base) == []


def test_load_artifact_rejects_other_schema_versions(tmp_path):
    path = tmp_path / "BENCH_ablation_x.json"
    path.write_text(json.dumps({"schema_version": 1}))
    with pytest.raises(ValueError):
        load_artifact(path)


def test_non_finite_values_fail_the_gate(tmp_path):
    # json.dumps writes a bare NaN/Infinity by default; no strict
    # parser reads that back, so the gate refuses the file outright.
    for bad in (float("nan"), float("inf"), float("-inf")):
        doctored = artifact()
        doctored["runs"][0]["metrics"]["p50_ms"] = bad
        path = tmp_path / "BENCH_ablation_bad.json"
        path.write_text(json.dumps(doctored))
        with pytest.raises(ValueError, match="non-finite"):
            load_artifact(path)
    fresh_dir, base_dir = _write_dirs(tmp_path, doctored, artifact())
    violations, compared = run_gate(
        fresh_dir, base_dir, pattern="BENCH_ablation_*.json"
    )
    assert compared == []
    assert [v.kind for v in violations] == ["schema"]
    assert "non-finite" in violations[0].message
    assert main(["--fresh", str(fresh_dir), "--baseline", str(base_dir)]) == 1


def _write_dirs(tmp_path, fresh, baseline, name="BENCH_ablation_toy.json"):
    fresh_dir = tmp_path / "fresh"
    base_dir = tmp_path / "base"
    fresh_dir.mkdir()
    base_dir.mkdir()
    (fresh_dir / name).write_text(json.dumps(fresh))
    (base_dir / name).write_text(json.dumps(baseline))
    return fresh_dir, base_dir


def test_run_gate_end_to_end_pass_and_fail(tmp_path):
    fresh_dir, base_dir = _write_dirs(tmp_path, artifact(), artifact())
    violations, compared = run_gate(
        fresh_dir, base_dir, pattern="BENCH_ablation_*.json"
    )
    assert violations == [] and compared == ["BENCH_ablation_toy.json"]
    assert main(["--fresh", str(fresh_dir), "--baseline", str(base_dir)]) == 0

    doctored = copy.deepcopy(artifact())
    doctored["runs"][0]["metrics"]["p99_ms"] = 20.0  # +100%
    (tmp_path / "round2").mkdir()
    fresh_dir2, base_dir2 = _write_dirs(
        tmp_path / "round2", artifact(), doctored
    )
    violations, _ = run_gate(
        fresh_dir2, base_dir2, pattern="BENCH_ablation_*.json"
    )
    # Baseline p99 is 20, fresh is 10: an improvement, passes.
    assert violations == []
    # Flip the direction: fresh regressed vs committed baseline.
    (fresh_dir2 / "BENCH_ablation_toy.json").write_text(json.dumps(doctored))
    (base_dir2 / "BENCH_ablation_toy.json").write_text(json.dumps(artifact()))
    assert (
        main(["--fresh", str(fresh_dir2), "--baseline", str(base_dir2)]) == 1
    )


def test_empty_intersection_is_a_violation(tmp_path):
    fresh_dir = tmp_path / "fresh"
    base_dir = tmp_path / "base"
    fresh_dir.mkdir()
    base_dir.mkdir()
    violations, compared = run_gate(fresh_dir, base_dir)
    assert compared == []
    assert [v.kind for v in violations] == ["schema"]
    assert "compared nothing" in violations[0].message


def test_baseline_without_fresh_artifact_is_a_violation(tmp_path):
    """A grid dropped from the run, renamed, or crashed before writing
    must not stop being gated in silence."""
    fresh_dir, base_dir = _write_dirs(tmp_path, artifact(), artifact())
    (base_dir / "BENCH_ablation_gone.json").write_text(json.dumps(artifact()))
    violations, compared = run_gate(fresh_dir, base_dir)
    assert compared == ["BENCH_ablation_toy.json"]
    assert [(v.artifact, v.kind) for v in violations] == [
        ("BENCH_ablation_gone.json", "missing")
    ]
    argv = ["--fresh", str(fresh_dir), "--baseline", str(base_dir)]
    assert main(argv) == 1
    # --pattern is how one grid is gated alone.
    assert main(argv + ["--pattern", "BENCH_ablation_toy.json"]) == 0


def test_violation_render_is_one_line():
    line = Violation("a.json", "runs.0.p99_ms", "p99", "regressed").render()
    assert line == "a.json: [p99] runs.0.p99_ms: regressed"
