"""Pinned old-vs-new stats outputs.

The stats overhaul (bisect histogram lookups, sort-once timer
snapshots) is a pure performance change: the numbers below were computed with the pre-overhaul
implementation (linear bucket scan, sort-per-snapshot) and are pinned
so any drift in the arithmetic — interpolation, bucket edges, stdev —
fails loudly instead of silently skewing every benchmark table.
"""

import random

import pytest

from repro.sim.stats import Histogram, StatsRegistry, Timer


def _samples():
    rng = random.Random(99)
    return [rng.expovariate(0.01) for _ in range(500)]


def test_timer_snapshot_pins_pre_overhaul_values():
    timer = Timer("t")
    for value in _samples():
        timer.record(value)
    snap = timer.snapshot()
    assert snap["count"] == 500
    assert snap["total"] == pytest.approx(48469.1342830597, abs=1e-9)
    assert snap["mean"] == pytest.approx(96.9382685661, abs=1e-9)
    assert snap["min"] == pytest.approx(0.0743020134, abs=1e-9)
    assert snap["max"] == pytest.approx(638.6122591591, abs=1e-9)
    assert snap["stdev"] == pytest.approx(99.9327817337, abs=1e-9)
    assert snap["p50"] == pytest.approx(61.6829664299, abs=1e-9)
    assert snap["p99"] == pytest.approx(480.8176243963, abs=1e-9)


def test_histogram_pins_pre_overhaul_values():
    hist = Histogram("h", bounds=[1.0, 5.0, 25.0, 125.0, 625.0])
    for value in _samples():
        hist.record(value)
    assert hist.counts == [5, 20, 90, 246, 138, 1]
    assert hist.percentile(50.0) == pytest.approx(79.8780487804878)
    assert hist.percentile(90.0) == pytest.approx(447.463768115942)
    assert hist.percentile(99.0) == pytest.approx(610.5072463768115)


def test_histogram_bucket_index_matches_linear_scan():
    bounds = [1.0, 5.0, 25.0, 125.0, 625.0]
    hist = Histogram("h", bounds=bounds)

    def linear(value):
        for index, bound in enumerate(bounds):
            if value <= bound:
                return index
        return len(bounds)

    rng = random.Random(5)
    probes = [0.0, 1.0, 1.5, 5.0, 624.9, 625.0, 10_000.0]
    probes += [rng.random() * 700 for _ in range(200)]
    for value in probes:
        assert hist.bucket_index(value) == linear(value)


def test_registry_memoizes_and_guards_timer_mode():
    stats = StatsRegistry(env=None)
    timer = stats.timer("sim.test.latency")
    assert stats.timer("sim.test.latency") is timer
