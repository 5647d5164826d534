"""Direct unit tests for the stats primitives (PR 5 satellite).

:mod:`tests.sim.test_rng_latency_stats` covers the basics; this module
pins the Histogram percentile edge cases (empty, single sample, p0/p100,
overflow bucket) and the snapshot shapes every primitive now exposes.
"""

import pytest

from repro.sim import Environment
from repro.sim.stats import Counter, Histogram


# ----------------------------------------------------------------------
# Histogram percentiles
# ----------------------------------------------------------------------
def test_histogram_percentile_empty_raises():
    h = Histogram("lat", [10, 20])
    with pytest.raises(ValueError):
        h.percentile(50)
    with pytest.raises(ValueError):
        h.minimum
    with pytest.raises(ValueError):
        h.maximum


def test_histogram_percentile_out_of_range():
    h = Histogram("lat", [10])
    h.record(5)
    with pytest.raises(ValueError):
        h.percentile(-1)
    with pytest.raises(ValueError):
        h.percentile(101)


def test_histogram_single_sample_is_exact_for_any_p():
    h = Histogram("lat", [10, 20, 30])
    h.record(17.5)
    for p in (0, 1, 50, 99, 100):
        assert h.percentile(p) == pytest.approx(17.5)


def test_histogram_p0_p100_are_true_extremes():
    h = Histogram("lat", [10, 20, 30])
    for v in (3, 12, 28, 29):
        h.record(v)
    assert h.percentile(0) == 3
    assert h.percentile(100) == 29
    assert h.minimum == 3
    assert h.maximum == 29


def test_histogram_overflow_bucket_reports_observed_max():
    h = Histogram("lat", [10])
    h.record(5)
    h.record(500)  # overflow bucket is unbounded above
    assert h.percentile(99) <= 500
    assert h.percentile(100) == 500


def test_histogram_percentile_interpolates_within_bucket():
    h = Histogram("lat", [10, 20])
    for _ in range(10):
        h.record(15)  # all mass in (10, 20]
    p50 = h.percentile(50)
    assert 10 <= p50 <= 20
    # Clamped to the observed range, not the bucket bound.
    assert h.percentile(1) >= 15 or h.percentile(1) >= 10
    assert h.percentile(100) == 15


def test_histogram_percentile_skips_empty_buckets():
    h = Histogram("lat", [1, 2, 3, 100])
    h.record(0.5)
    h.record(90)
    # The mass sits in the first and fourth buckets; the median must
    # land inside an occupied bucket's value range.
    assert 0.5 <= h.percentile(50) <= 90


@pytest.mark.parametrize(
    "count",
    [
        lambda: Counter("a.b").increment(float("nan")),
        lambda: Histogram("h", [10]).record(float("nan")),
    ],
    ids=["counter", "histogram"],
)
def test_nan_is_refused_not_counted(count):
    # NaN slips past ``x < 0``: it would land in run digests and pin a
    # histogram's min and max at nan for good.
    with pytest.raises(ValueError):
        count()


def test_histogram_still_counts_negative_values():
    h = Histogram("h", [10])
    assert h.record(-3.0) == 0
    assert h.minimum == -3.0


def test_histogram_bucket_index():
    h = Histogram("lat", [10, 20])
    assert h.record(10) == 0
    assert h.record(10.1) == 1
    assert h.record(21) == 2  # overflow


# ----------------------------------------------------------------------
# Snapshots
# ----------------------------------------------------------------------
def test_counter_snapshot():
    c = Counter("calls")
    c.increment(3)
    assert c.snapshot() == {"value": 3}


def test_histogram_snapshot_empty_and_full():
    h = Histogram("lat", [10])
    snap = h.snapshot()
    assert snap["total"] == 0
    assert "min" not in snap and "max" not in snap
    h.record(4)
    h.record(40)
    snap = h.snapshot()
    assert snap["total"] == 2
    assert snap["min"] == 4 and snap["max"] == 40
    assert snap["buckets"] == [["<= 10", 1], ["> 10", 1]]


def test_registry_snapshot_accessors():
    env = Environment()
    env.stats.counter("sim.a").increment()
    env.stats.histogram("sim.h", [10]).record(3.0)
    assert env.stats.counters() == {"sim.a": 1}
    assert env.stats.histograms()["sim.h"]["total"] == 1
