"""Measurement primitives: counters, timers, histograms.

The benchmark harness reads these to build its paper-vs-measured tables.
All statistics live in a per-environment :class:`StatsRegistry` so that
independent simulation runs never share state.

Hot-path notes: every class here is ``__slots__``-backed, running
aggregates (count/total/min/max) are maintained on :meth:`Timer.record`
instead of being recomputed per property access, and
:meth:`Histogram.bucket_index` / :meth:`Histogram.percentile` use
``bisect`` over a linear scan — with arithmetic chosen to be
bit-identical to the original scans (the regression tests pin that).

:class:`Timer` keeps every sample, so percentiles are exact and
``samples`` stays inspectable.  Running totals use the same
left-to-right float summation the original ``sum(samples)`` did, so
snapshots are bit-identical to the seed implementation.
"""

from __future__ import annotations

import math
import typing
from bisect import bisect_left
from itertools import accumulate

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment

_INF = float("inf")


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        if not amount >= 0:  # also refuses NaN, which compares false
            raise ValueError(f"counters only increase: {amount!r}")
        self.value += amount

    def snapshot(self) -> typing.Dict[str, int]:
        """The counter's state as plain data."""
        return {"value": self.value}


class Timer:
    """Accumulates durations (ms) and summarises them.

    ``count``/``total``/``minimum``/``maximum`` are running aggregates
    (O(1) per access); ``percentile`` is exact.
    """

    __slots__ = ("name", "samples", "_count", "_total", "_min", "_max")

    def __init__(self, name: str):
        self.name = name
        self.samples: typing.List[float] = []
        self._count = 0
        self._total = 0.0
        self._min = _INF
        self._max = -_INF

    def record(self, duration_ms: float) -> None:
        if not duration_ms >= 0:  # also refuses NaN, which compares false
            raise ValueError(f"not a duration: {duration_ms!r}")
        self._count += 1
        # Left-to-right addition, same order as the seed's sum(samples):
        # totals stay bit-identical to the original implementation.
        self._total += duration_ms
        if duration_ms < self._min:
            self._min = duration_ms
        if duration_ms > self._max:
            self._max = duration_ms
        self.samples.append(duration_ms)

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        if not self._count:
            raise ValueError(f"timer {self.name!r} has no samples")
        return self._total / self._count

    @property
    def minimum(self) -> float:
        if not self._count:
            raise ValueError(f"timer {self.name!r} has no samples")
        return self._min

    @property
    def maximum(self) -> float:
        if not self._count:
            raise ValueError(f"timer {self.name!r} has no samples")
        return self._max

    def percentile(self, p: float) -> float:
        """Percentile, ``p`` in [0, 100]: linear interpolation over the
        sorted samples."""
        if not self._count:
            raise ValueError(f"timer {self.name!r} has no samples")
        if not 0 <= p <= 100:
            raise ValueError(f"percentile out of range: {p}")
        return self._percentile_sorted(sorted(self.samples), p)

    @staticmethod
    def _percentile_sorted(ordered: typing.List[float], p: float) -> float:
        """Interpolated percentile over an already-sorted sample list."""
        if len(ordered) == 1:
            return ordered[0]
        rank = (p / 100) * (len(ordered) - 1)
        low = math.floor(rank)
        high = math.ceil(rank)
        if low == high:
            return ordered[low]
        frac = rank - low
        value = ordered[low] * (1 - frac) + ordered[high] * frac
        # Clamp: interpolation of denormal floats can round outside the
        # bracketing samples.
        return min(max(value, ordered[low]), ordered[high])

    @property
    def stdev(self) -> float:
        if self._count < 2:
            return 0.0
        # Two-pass formula, unchanged from the seed implementation.
        mean = self.mean
        var = sum((s - mean) ** 2 for s in self.samples) / (self._count - 1)
        return math.sqrt(var)

    def snapshot(self) -> typing.Dict[str, float]:
        """Summary statistics as plain data (empty-safe).

        Sorts the sample list once and derives both percentiles from it
        (the seed version paid two full sorts, one per ``percentile()``
        call).
        """
        if not self._count:
            return {"count": 0.0, "total": 0.0}
        ordered = sorted(self.samples)
        p50 = self._percentile_sorted(ordered, 50)
        p99 = self._percentile_sorted(ordered, 99)
        return {
            "count": float(self._count),
            "total": self._total,
            "mean": self._total / self._count,
            "min": self._min,
            "max": self._max,
            "p50": p50,
            "p99": p99,
            "stdev": self.stdev,
        }


class Histogram:
    """Fixed-bucket histogram for latency distributions.

    Alongside the bucket counts it tracks the smallest and largest
    recorded values, which anchor :meth:`percentile`'s interpolation —
    without them an estimate could only name a bucket bound, and the
    empty / single-sample / p0 / p100 edge cases would have no honest
    answer at all.
    """

    __slots__ = ("name", "bounds", "counts", "_min", "_max")

    def __init__(self, name: str, bounds: typing.Sequence[float]):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("bucket bounds must be non-empty and sorted")
        self.name = name
        self.bounds = [float(b) for b in bounds]
        # One bucket per bound plus overflow.
        self.counts = [0] * (len(self.bounds) + 1)
        self._min: typing.Optional[float] = None
        self._max: typing.Optional[float] = None

    def bucket_index(self, value: float) -> int:
        """Index of the bucket ``value`` falls in (last = overflow).

        ``bisect_left`` returns the first index whose bound is >= value
        — exactly the first ``value <= bound`` the original linear scan
        found, in O(log buckets).
        """
        return bisect_left(self.bounds, value)

    def record(self, value: float) -> int:
        """Count ``value``; returns the index of the bucket it fell in."""
        if value != value:  # only NaN is unequal to itself
            raise ValueError(f"histogram {self.name!r} cannot count NaN")
        index = bisect_left(self.bounds, value)
        self.counts[index] += 1
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        return index

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def minimum(self) -> float:
        if self._min is None:
            raise ValueError(f"histogram {self.name!r} has no samples")
        return self._min

    @property
    def maximum(self) -> float:
        if self._max is None:
            raise ValueError(f"histogram {self.name!r} has no samples")
        return self._max

    def percentile(self, p: float) -> float:
        """Estimated percentile, ``p`` in [0, 100].

        Locates the bucket holding the requested rank (binary search
        over the cumulative counts — the first cumulative >= rank is
        the same bucket the original linear scan stopped at, since a
        zero-count bucket can never be the leftmost such index) and
        interpolates linearly within it, clamped to the observed
        [min, max] — so an empty histogram raises, a single sample is
        returned exactly for any ``p``, p0/p100 return the true
        extremes, and the unbounded overflow bucket reports the
        observed maximum instead of infinity.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile out of range: {p}")
        cums = list(accumulate(self.counts))
        total = cums[-1]
        if total == 0 or self._min is None or self._max is None:
            raise ValueError(f"histogram {self.name!r} has no samples")
        if p == 0:
            return self._min
        if p == 100:
            return self._max
        rank = (p / 100) * total
        i = bisect_left(cums, rank)
        lower = self.bounds[i - 1] if i > 0 else self._min
        upper = self.bounds[i] if i < len(self.bounds) else self._max
        cumulative = cums[i - 1] if i > 0 else 0
        fraction = (rank - cumulative) / self.counts[i]
        value = lower + fraction * (upper - lower)
        return min(max(value, self._min), self._max)

    def buckets(self) -> typing.List[typing.Tuple[str, int]]:
        """(label, count) pairs including the overflow bucket."""
        labels = [f"<= {b:g}" for b in self.bounds] + [f"> {self.bounds[-1]:g}"]
        return list(zip(labels, self.counts))

    def snapshot(self) -> typing.Dict[str, object]:
        """Bucket counts and extremes as plain data (empty-safe)."""
        data: typing.Dict[str, object] = {
            "total": self.total,
            "buckets": [list(pair) for pair in self.buckets()],
        }
        if self._min is not None and self._max is not None:
            data["min"] = self._min
            data["max"] = self._max
        return data


class StatsRegistry:
    """Per-environment home for named counters, timers, histograms.

    Lookups are ``dict.get``-based so the hot-loop idiom
    ``env.stats.counter("x").increment()`` costs one hash probe, not a
    ``__contains__`` probe plus a ``__getitem__`` probe.
    """

    __slots__ = ("_env", "_counters", "_timers", "_histograms")

    def __init__(self, env: "Environment"):
        self._env = env
        self._counters: typing.Dict[str, Counter] = {}
        self._timers: typing.Dict[str, Timer] = {}
        self._histograms: typing.Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def timer(self, name: str) -> Timer:
        timer = self._timers.get(name)
        if timer is None:
            timer = self._timers[name] = Timer(name)
        return timer

    def histogram(self, name: str, bounds: typing.Sequence[float]) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, bounds)
        return histogram

    def counters(self) -> typing.Dict[str, int]:
        """Snapshot of all counter values."""
        return {name: c.value for name, c in self._counters.items()}

    def timers(self) -> typing.Dict[str, typing.Dict[str, float]]:
        """Snapshot of all timers (name -> summary statistics)."""
        return {name: t.snapshot() for name, t in self._timers.items()}

    def histograms(self) -> typing.Dict[str, typing.Dict[str, object]]:
        """Snapshot of all histograms (name -> buckets + extremes)."""
        return {name: h.snapshot() for name, h in self._histograms.items()}
