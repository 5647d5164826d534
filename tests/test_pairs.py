"""The pairs tool (``tools/pairs.py``): its statistics, on synthetic
numbers."""

import importlib.util
import pathlib

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
