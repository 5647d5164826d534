"""The pairs tool (``tools/pairs.py``): its statistics, on synthetic
numbers, and the trees and environment its runs get."""

import importlib.util
import json
import pathlib
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def test_quartiles_interpolate_between_order_statistics():
    assert pairs.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 3.0, 4.0)
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)
    with pytest.raises(ValueError):
        pairs.quartiles([])


def test_a_lower_is_better_gain_beyond_the_parents_spread():
    parent = [100.0, 104.0, 98.0, 102.0, 101.0, 99.0, 103.0, 100.0, 97.0, 105.0]
    change = [p - 10.0 for p in parent]
    change[3] = 103.0  # one lost pair
    result = pairs.compare(parent, change, "lower")
    assert result["parent"]["median"] == 100.5
    assert result["deltas"][3] == 1.0 and result["deltas"][0] == -10.0
    assert (result["wins"], result["n"]) == (9, 10)
    assert result["parent_iqr"] == pytest.approx(3.5)
    assert result["beyond_parent_iqr"] is True
    assert result["median_delta_pct"] == pytest.approx(-9.95, abs=0.01)


def test_a_shift_inside_the_parents_spread_is_not_beyond_it():
    parent = [10.0, 14.0, 12.0, 16.0]
    result = pairs.compare(parent, [p + 1.0 for p in parent], "lower")
    assert result["wins"] == 0
    assert result["parent_iqr"] == pytest.approx(3.0)
    assert result["beyond_parent_iqr"] is False


def test_higher_is_better_counts_wins_upwards_and_a_tie_is_no_win():
    result = pairs.compare([5.0, 5.0, 5.0], [6.0, 5.0, 4.0], "higher")
    assert result["wins"] == 1
    assert pairs.compare([1.0, 2.0], [1.0, 2.0], "lower")["wins"] == 0
    with pytest.raises(ValueError):
        pairs.compare([1.0], [1.0, 2.0], "lower")


def test_pairs_alternate_their_order_from_seed_seven():
    assert pairs.schedule(3) == [
        (7, ("parent", "change")),
        (8, ("change", "parent")),
        (9, ("parent", "change")),
    ]


def test_a_first_seed_offsets_every_pair_and_keeps_the_order():
    assert pairs.schedule(3, first_seed=101) == [
        (101, ("parent", "change")),
        (102, ("change", "parent")),
        (103, ("parent", "change")),
    ]
    assert pairs.schedule(4, first_seed=pairs.FIRST_SEED) == pairs.schedule(4)


def test_the_experiments_row():
    metric = pairs.compare([380.0, 390.0, 370.0], [340.0, 350.0, 380.0], "lower")
    assert pairs.row("cold_import", [7, 8, 9], metric) == (
        "| `cold_import` | 7–9 | 380.0 (375.0–385.0) | 350.0 (345.0–365.0) "
        "| −7.9 % | 10.00 | 2/3 (−10.5 … +2.6 %) |"
    )


def test_each_ledger_workload_has_a_default_duration_and_a_flag_overrides_it():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert sorted(pairs.SECONDS) == sorted(w["name"] for w in declared)
    for name, seconds in pairs.SECONDS.items():
        assert pairs.seconds_for(name) == seconds > 0
        assert pairs.seconds_for(name, 1.0) == 1.0
    with pytest.raises(KeyError):
        pairs.seconds_for("no_such_workload")


def test_both_trees_run_from_source_in_one_environment(monkeypatch, tmp_path):
    """A tree's ``__pycache__`` is neither read nor written: each run gets
    the same environment, whichever tree it is in."""
    seen = []

    def fake_run(argv, cwd, env, capture_output, text):
        seen.append((cwd, env))
        line = json.dumps({"failed": 0, "correct": True, "metrics": {}})
        return subprocess.CompletedProcess(argv, 0, stdout=line + "\n", stderr="")

    monkeypatch.setenv("PYTHONPATH", "src")
    monkeypatch.setattr(pairs.subprocess, "run", fake_run)
    pycache = tmp_path / "pycache"
    pycache.mkdir()
    for tree in (tmp_path / "parent", ROOT):
        assert pairs.run_once(tree, "mclient_zipf", 7, 1.0, pycache)["rc"] == 0
    (parent_tree, parent_env), (change_tree, change_env) = seen
    assert (parent_tree, change_tree) == (tmp_path / "parent", ROOT)
    assert parent_env == change_env
    assert parent_env["PYTHONDONTWRITEBYTECODE"] == "1"
    assert parent_env["PYTHONPYCACHEPREFIX"] == str(pycache)
    assert "PYTHONPATH" not in parent_env


def test_the_change_is_the_working_tree_copied_as_it_stands(monkeypatch, tmp_path):
    """Every file git lists (tracked, or untracked and not ignored) is
    copied, each to its own path; one deleted from the tree is not."""

    def fake_run(argv, check, capture_output, text):
        assert argv[-3:] == ["--cached", "--others", "--exclude-standard"]
        listed = "tools/pairs.py\0no/such/file.py\0"
        return subprocess.CompletedProcess(argv, 0, stdout=listed, stderr="")

    monkeypatch.setattr(pairs.subprocess, "run", fake_run)
    change = tmp_path / "change"
    pairs.copy_change(change)
    copied = [path.relative_to(change).as_posix() for path in change.rglob("*") if path.is_file()]
    assert copied == ["tools/pairs.py"]
    assert (change / copied[0]).read_bytes() == (ROOT / copied[0]).read_bytes()
