"""Pinned old-vs-new stats outputs.

The stats overhaul (bisect histogram lookups) is a pure performance
change: the numbers below were computed with the pre-overhaul
implementation (linear bucket scan) and are pinned so any drift in the
arithmetic — interpolation, bucket edges — fails loudly instead of
silently skewing every benchmark table.
"""

import random

import pytest

from repro.sim.stats import Histogram, StatsRegistry


def _samples():
    rng = random.Random(99)
    return [rng.expovariate(0.01) for _ in range(500)]


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
        assert hist.record(value) == linear(value)


def test_registry_memoizes_by_name():
    stats = StatsRegistry(env=None)
    counter = stats.counter("sim.test.requests")
    assert stats.counter("sim.test.requests") is counter
    histogram = stats.histogram("sim.test.latency", (1.0,))
    assert stats.histogram("sim.test.latency", (1.0,)) is histogram
