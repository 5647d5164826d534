"""The ablation engine: expansion, fan-out determinism, importance.

Everything here drives the ``toy`` grid (seconds-free, a few dozen
events per run) so the whole file stays tier-1 fast while still
exercising the real :class:`~repro.harness.ablation.AblationStudy`
paths — including a real two-worker ``ProcessPoolExecutor`` and a
runner that raises on purpose.  The one exception is the fan-out
speedup bar, which times the full fast-path grid on hosts with at
least four cores.
"""

import os

import pytest

from repro.harness.ablation import (
    AblationStudy,
    BASELINE_KEY,
    GridDef,
    Knob,
    RunResult,
    RunSpec,
    derive_seed,
    dump_payload,
    now_wall,
    strip_wall_clock,
    study_payload,
)
from repro.harness.grids import FAST_PATH_GRID, TOY_GRID, percentile


def _result(spec, metrics, status="ok"):
    return RunResult(
        spec=spec,
        status=status,
        metrics=metrics,
        digest="d" if status == "ok" else None,
        sim_ms=1.0,
        wall_s=0.01,
    )


# ----------------------------------------------------------------------
# Knob / GridDef validation
# ----------------------------------------------------------------------
def test_knob_rejects_baseline_in_variants():
    with pytest.raises(ValueError):
        Knob("k", baseline="a", variants=("a", "b"))


def test_knob_rejects_duplicate_variants():
    with pytest.raises(ValueError):
        Knob("k", baseline="a", variants=("b", "b"))


def test_grid_rejects_duplicate_knob_names():
    knob = Knob("k", baseline="a", variants=("b",))
    with pytest.raises(ValueError):
        GridDef(name="g", knobs=(knob, knob), runner="m:f")


# ----------------------------------------------------------------------
# Expansion
# ----------------------------------------------------------------------
def test_expand_is_baseline_then_one_offs_with_no_duplicates():
    study = AblationStudy(TOY_GRID)
    specs = study.expand()
    keys = [spec.key for spec in specs]
    assert keys == [
        BASELINE_KEY,
        "ticks=many",
        "mode=jittered",
        "mode=boom",
    ]
    # Every one-off flips exactly one knob off the baseline.
    baseline = dict(specs[0].knobs)
    for spec in specs[1:]:
        assignment = dict(spec.knobs)
        assert sum(assignment[k] != baseline[k] for k in baseline) == 1
    # Assignments never repeat.
    fingerprints = [tuple(sorted(spec.knobs)) for spec in specs]
    assert len(set(fingerprints)) == len(specs)


def test_expand_full_grid_covers_the_cartesian_product_once():
    study = AblationStudy(TOY_GRID)
    specs = study.expand(full_grid=True)
    # 2 ticks x 3 modes = 6 unique assignments; baseline + 3 one-offs
    # already cover 4 of them, the cartesian pass adds the other 2.
    assert len(specs) == 6
    fingerprints = {tuple(sorted(spec.knobs)) for spec in specs}
    assert len(fingerprints) == 6
    keys = [spec.key for spec in specs]
    assert keys[0] == BASELINE_KEY
    assert "ticks=many,mode=jittered" in keys


def test_extras_expand_and_dedupe():
    grid = GridDef(
        name="g",
        knobs=(Knob("k", baseline="a", variants=("b",)),),
        runner="m:f",
        extras=(
            ("same_as_one_off", (("k", "b"),)),  # duplicate: dropped
            ("still_baseline", ()),  # duplicate of baseline: dropped
        ),
    )
    keys = [spec.key for spec in AblationStudy(grid).expand()]
    assert keys == [BASELINE_KEY, "k=b"]


def test_seeds_are_stable_and_distinct_per_spec():
    study = AblationStudy(TOY_GRID)
    specs = study.expand()
    seeds = [spec.seed for spec in specs]
    assert len(set(seeds)) == len(seeds)
    for spec in specs:
        assert spec.seed == derive_seed(TOY_GRID.seed, "toy", spec.key)
    # Re-expansion reproduces the same seeds (no per-process salt).
    assert [s.seed for s in study.expand()] == seeds


# ----------------------------------------------------------------------
# Execution: serial vs fanned, crash surfacing
# ----------------------------------------------------------------------
def test_jobs_1_and_jobs_2_produce_identical_artifacts():
    study = AblationStudy(TOY_GRID)
    specs = study.expand()
    serial = study.execute(specs, jobs=1)
    fanned = study.execute(specs, jobs=2)
    one = dump_payload(
        strip_wall_clock(study_payload(study, serial, jobs=1, wall_s=0.0))
    )
    two = dump_payload(
        strip_wall_clock(study_payload(study, fanned, jobs=2, wall_s=0.0))
    )
    assert one == two
    assert [r.spec.key for r in fanned] == [s.key for s in specs]


@pytest.mark.skipif((os.cpu_count() or 1) < 4, reason="the bar needs at least 4 cores")
def test_fanned_full_grid_is_at_least_2_5x_faster_than_serial():
    """The simulator is single-threaded and deterministic, so the full
    cartesian fast-path grid (20 smoke specs) is embarrassingly parallel."""
    study = AblationStudy(FAST_PATH_GRID, smoke=True)
    specs = study.expand(full_grid=True)
    start = now_wall()
    serial = study.execute(specs, jobs=1)
    serial_s = now_wall() - start
    start = now_wall()
    study.execute(specs, jobs=min(os.cpu_count() or 1, len(specs)))
    fanned_s = now_wall() - start
    assert all(r.ok for r in serial), [r.spec.key for r in serial if not r.ok]
    assert serial_s >= 2.5 * fanned_s, (serial_s, fanned_s)


def test_worker_crash_surfaces_as_error_result():
    study = AblationStudy(TOY_GRID)
    specs = study.expand()
    for jobs in (1, 2):
        results = study.execute(specs, jobs=jobs)
        by_key = {r.spec.key: r for r in results}
        boom = by_key["mode=boom"]
        assert not boom.ok
        assert boom.status == "error"
        assert "injected toy-grid failure" in boom.error
        # The crash does not poison the siblings.
        assert by_key[BASELINE_KEY].ok
        assert by_key["ticks=many"].ok


def test_error_runs_carry_no_digest_and_are_skipped_by_importance():
    study = AblationStudy(TOY_GRID)
    results = study.execute(study.expand(), jobs=1)
    boom = next(r for r in results if r.spec.key == "mode=boom")
    assert boom.digest is None and boom.metrics == {}
    assert "mode=boom" not in study.importance(results)


# ----------------------------------------------------------------------
# Importance arithmetic
# ----------------------------------------------------------------------
def test_importance_deltas_and_ratios():
    grid = GridDef(
        name="g",
        knobs=(Knob("k", baseline="on", variants=("off",)),),
        runner="m:f",
    )
    study = AblationStudy(grid)
    base_spec, off_spec = study.expand()
    results = [
        _result(
            base_spec,
            {"p99_ms": 10.0, "availability": 1.0, "zero": 0.0, "p50_ms": 1.0},
        ),
        _result(
            off_spec,
            {"p99_ms": 25.0, "availability": 0.9, "zero": 4.0,
             "p50_ms": percentile([], 50)},
        ),
    ]
    scores = study.importance(results)
    assert set(scores) == {"k=off"}
    p99 = scores["k=off"]["p99_ms"]
    assert p99 == {
        "baseline": 10.0,
        "value": 25.0,
        "delta": 15.0,
        "ratio": 2.5,
    }
    assert scores["k=off"]["availability"]["delta"] == pytest.approx(-0.1)
    # A zero baseline reports no ratio rather than dividing by zero.
    assert "ratio" not in scores["k=off"]["zero"]
    # An empty sample has no percentile (None, JSON null): nothing to score.
    assert "p50_ms" not in scores["k=off"]


def test_importance_without_baseline_is_empty():
    grid = GridDef(
        name="g",
        knobs=(Knob("k", baseline="on", variants=("off",)),),
        runner="m:f",
    )
    study = AblationStudy(grid)
    base_spec, off_spec = study.expand()
    assert study.importance([_result(off_spec, {"p99_ms": 1.0})]) == {}
    failed_base = _result(base_spec, {}, status="error")
    assert study.importance([failed_base]) == {}


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
def test_payload_shape_and_wall_clock_stripping():
    study = AblationStudy(TOY_GRID, smoke=True)
    specs = study.expand()
    results = study.execute(specs, jobs=1)
    payload = study_payload(study, results, jobs=3, wall_s=1.5, cpus=8)
    assert payload["schema_version"] == 2
    assert payload["grid"] == "toy"
    assert payload["smoke"] is True
    assert [row["key"] for row in payload["runs"]] == [s.key for s in specs]
    stripped = strip_wall_clock(payload)
    assert "wall_s" not in stripped
    assert "jobs" not in stripped and "cpus" not in stripped
    for row in stripped["runs"]:
        assert "wall_s" not in row
        assert "seed" in row and "digest" in row


def test_spec_knob_dict_round_trip():
    spec = RunSpec(
        grid="g",
        key="k=b",
        knobs=(("k", "b"), ("j", "a")),
        runner="m:f",
        seed=5,
        smoke=False,
    )
    assert spec.knob_dict() == {"k": "b", "j": "a"}
