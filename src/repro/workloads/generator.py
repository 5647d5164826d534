"""Query-stream generation with locality of reference."""

from __future__ import annotations

import dataclasses
import typing

from repro.core.names import HNSName
from repro.sim.kernel import Environment
from repro.workloads.zipf import ZipfDistribution


@dataclasses.dataclass(frozen=True)
class QueryEvent:
    """One generated query."""

    at_ms: float
    hns_name: HNSName
    query_class: str
    params: typing.Mapping[str, object]


class QueryWorkload:
    """Generates query streams over a population of names.

    ``population`` is a list of (HNSName, query_class, params) tuples;
    queries are drawn Zipf-distributed over it (rank = list position),
    with exponential inter-arrival times.
    """

    def __init__(
        self,
        env: Environment,
        population: typing.Sequence[
            typing.Tuple[HNSName, str, typing.Mapping[str, object]]
        ],
        mean_interarrival_ms: float = 1000.0,
        zipf_s: float = 1.0,
        stream: str = "workload",
    ):
        if not population:
            raise ValueError("workload needs a non-empty population")
        if mean_interarrival_ms <= 0:
            raise ValueError("mean inter-arrival must be positive")
        self.env = env
        self.population = list(population)
        self.mean_interarrival_ms = mean_interarrival_ms
        self.zipf = ZipfDistribution(len(population), zipf_s)
        self.rng = env.rng.stream(stream)

    def generate(self, count: int) -> typing.List[QueryEvent]:
        """A deterministic list of ``count`` queries starting at now."""
        if count < 0:
            raise ValueError("count must be non-negative")
        at = self.env.now
        events = []
        for _ in range(count):
            at += self.rng.expovariate(1.0 / self.mean_interarrival_ms)
            name, query_class, params = self.population[self.zipf.sample(self.rng)]
            events.append(QueryEvent(at, name, query_class, dict(params)))
        return events

