"""The ablation engine: expansion, seeds, error rows, importance.

Everything here drives small test-local grids whose runners are plain
functions (one of them raises on purpose), so the whole file stays
tier-1 fast while still exercising the real
:class:`~repro.harness.ablation.AblationStudy` paths.
"""

import pytest

from repro.harness.ablation import (
    AblationStudy,
    BASELINE_KEY,
    GridDef,
    Knob,
    RunOutput,
    RunResult,
    RunSpec,
    derive_seed,
    study_payload,
)
from repro.harness.gate import _numeric_leaves
from repro.harness.grids import percentile


def _ticks(knobs, seed, smoke):
    """A seconds-free runner: ``ticks`` delays of the ``mode`` shape."""
    if knobs["mode"] is None:
        raise ValueError("injected test-grid failure")
    delays = [knobs["mode"](seed, i) for i in range(knobs["ticks"])]
    return RunOutput(
        metrics={"ticks": float(len(delays)), "p99_ms": percentile(delays, 99)},
        digest=f"{seed}:{sum(delays)}",
        sim_ms=sum(delays),
    )


TICKS_GRID = GridDef(
    name="ticks",
    knobs=(
        Knob("ticks", baseline=("few", 5), variants=(("many", 50),)),
        Knob(
            "mode",
            baseline=("steady", lambda seed, i: 10.0),
            variants=(
                ("jittered", lambda seed, i: float((seed + 7 * i) % 20)),
                ("boom", None),
            ),
        ),
    ),
    runner=_ticks,
    seed=7,
)


def _one_knob_grid(**extras):
    knob = Knob("k", baseline=("on", True), variants=(("off", False),))
    return GridDef(name="g", knobs=(knob,), runner=_ticks, **extras)


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
        Knob("k", baseline=("a", 1), variants=(("a", 1), ("b", 2)))


def test_knob_rejects_duplicate_variants():
    with pytest.raises(ValueError):
        Knob("k", baseline=("a", 1), variants=(("b", 2), ("b", 3)))


def test_grid_rejects_duplicate_knob_names():
    knob = Knob("k", baseline=("a", 1), variants=(("b", 2),))
    with pytest.raises(ValueError):
        GridDef(name="g", knobs=(knob, knob), runner=_ticks)


# ----------------------------------------------------------------------
# Expansion
# ----------------------------------------------------------------------
def test_expand_is_baseline_then_one_offs_with_no_duplicates():
    study = AblationStudy(TICKS_GRID)
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


def test_extras_expand_and_dedupe():
    grid = _one_knob_grid(
        extras=(
            ("same_as_one_off", (("k", "off"),)),  # duplicate: dropped
            ("still_baseline", ()),  # duplicate of baseline: dropped
        ),
    )
    keys = [spec.key for spec in AblationStudy(grid).expand()]
    assert keys == [BASELINE_KEY, "k=off"]


def test_seeds_are_stable_and_distinct_per_spec():
    study = AblationStudy(TICKS_GRID)
    specs = study.expand()
    seeds = [spec.seed for spec in specs]
    assert len(set(seeds)) == len(seeds)
    for spec in specs:
        assert spec.seed == derive_seed(TICKS_GRID.seed, "ticks", spec.key)
    # Re-expansion reproduces the same seeds (no per-process salt).
    assert [s.seed for s in study.expand()] == seeds


# ----------------------------------------------------------------------
# Execution: the runner gets values, a raising runner is an error row
# ----------------------------------------------------------------------
def test_worker_crash_surfaces_as_error_result():
    study = AblationStudy(TICKS_GRID)
    results = study.execute()
    assert [r.spec.key for r in results] == [s.key for s in study.expand()]
    by_key = {r.spec.key: r for r in results}
    boom = by_key["mode=boom"]
    assert not boom.ok
    assert boom.status == "error"
    assert "injected test-grid failure" in boom.error
    # The crash does not stop the siblings, and each got its values.
    assert by_key[BASELINE_KEY].metrics["ticks"] == 5.0
    assert by_key["ticks=many"].metrics["ticks"] == 50.0
    assert by_key["mode=jittered"].ok


def test_error_runs_carry_no_digest_and_are_skipped_by_importance():
    study = AblationStudy(TICKS_GRID)
    results = study.execute()
    boom = next(r for r in results if r.spec.key == "mode=boom")
    assert boom.digest is None and boom.metrics == {}
    assert "mode=boom" not in study.importance(results)


# ----------------------------------------------------------------------
# Importance arithmetic
# ----------------------------------------------------------------------
def test_importance_deltas_and_ratios():
    study = AblationStudy(_one_knob_grid())
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
    study = AblationStudy(_one_knob_grid())
    base_spec, off_spec = study.expand()
    assert study.importance([_result(off_spec, {"p99_ms": 1.0})]) == {}
    failed_base = _result(base_spec, {}, status="error")
    assert study.importance([failed_base]) == {}


# ----------------------------------------------------------------------
# Serialization
# ----------------------------------------------------------------------
def test_payload_shape_and_wall_clock_stripping():
    study = AblationStudy(TICKS_GRID, smoke=True)
    specs = study.expand()
    results = study.execute(specs)
    payload = study_payload(study, results, wall_s=1.5)
    assert payload["schema_version"] == 2
    assert payload["grid"] == "ticks"
    assert payload["smoke"] is True
    assert [row["key"] for row in payload["runs"]] == [s.key for s in specs]
    # The artifact records variant names, never the values.
    assert payload["runs"][0]["knobs"] == {"ticks": "few", "mode": "steady"}
    # The gate compares every numeric leaf but the wall clock.
    leaves = dict(_numeric_leaves(payload))
    assert "runs.0.seed" in leaves
    assert not any(path.endswith("wall_s") for path in leaves)
    for row in payload["runs"]:
        assert "seed" in row and "digest" in row


def test_spec_knob_dict_round_trip():
    spec = RunSpec(grid="g", key="k=b", knobs=(("k", "b"), ("j", "a")), seed=5, smoke=False)
    assert spec.knob_dict() == {"k": "b", "j": "a"}
