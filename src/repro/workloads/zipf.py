"""Zipf-distributed choice, for locality-of-reference workloads.

The paper's caching scheme is "based on locality of reference to query
class and name system type"; the workload generator uses a Zipf
distribution over names/contexts to model that locality.
"""

from __future__ import annotations

import bisect
import random
import typing


class ZipfDistribution:
    """Ranks 1..n with probability proportional to 1/rank^s."""

    def __init__(self, n: int, s: float = 1.0):
        if n < 1:
            raise ValueError("need at least one rank")
        if s < 0:
            raise ValueError("exponent must be non-negative")
        self.n = n
        self.s = s
        weights = [1.0 / (rank**s) for rank in range(1, n + 1)]
        total = sum(weights)
        acc = 0.0
        self._cumulative: typing.List[float] = []
        for w in weights:
            acc += w / total
            self._cumulative.append(acc)

    def sample(self, rng: random.Random) -> int:
        """A rank in [0, n), 0 being the most popular."""
        u = rng.random()
        index = bisect.bisect_left(self._cumulative, u)
        return min(index, self.n - 1)

