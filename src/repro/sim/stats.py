"""Measurement primitives: counters and histograms.

The benchmark harness reads these to build its paper-vs-measured tables.
All statistics live in a per-environment :class:`StatsRegistry` so that
independent simulation runs never share state.

Hot-path notes: every class here is ``__slots__``-backed, and
:meth:`Histogram.bucket_index` / :meth:`Histogram.percentile` use
``bisect`` over a linear scan — with arithmetic chosen to be
bit-identical to the original scans (the regression tests pin that).
"""

from __future__ import annotations

import typing
from bisect import bisect_left
from itertools import accumulate

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment


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
    """Per-environment home for named counters and histograms.

    Lookups are ``dict.get``-based so the hot-loop idiom
    ``env.stats.counter("x").increment()`` costs one hash probe, not a
    ``__contains__`` probe plus a ``__getitem__`` probe.
    """

    __slots__ = ("_env", "_counters", "_histograms")

    def __init__(self, env: "Environment"):
        self._env = env
        self._counters: typing.Dict[str, Counter] = {}
        self._histograms: typing.Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def histogram(self, name: str, bounds: typing.Sequence[float]) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, bounds)
        return histogram

    def counters(self) -> typing.Dict[str, int]:
        """Snapshot of all counter values."""
        return {name: c.value for name, c in self._counters.items()}

    def histograms(self) -> typing.Dict[str, typing.Dict[str, object]]:
        """Snapshot of all histograms (name -> buckets + extremes)."""
        return {name: h.snapshot() for name, h in self._histograms.items()}
