"""Small helpers for running one simulated experiment."""

from __future__ import annotations

import dataclasses
import typing

from repro.sim.kernel import Environment


@dataclasses.dataclass
class ExperimentResult:
    """Outcome of one simulated run."""

    value: object
    elapsed_ms: float
    env: Environment

    @property
    def counters(self) -> typing.Dict[str, int]:
        return self.env.stats.counters()


def run_simulation(
    builder: typing.Callable[[Environment], typing.Generator],
    seed: int = 0,
    env: typing.Optional[Environment] = None,
) -> ExperimentResult:
    """Run ``builder(env)`` as a process to completion.

    ``builder`` receives the environment and returns the generator to
    drive; the result records the process return value and the elapsed
    simulated time.
    """
    env = env or Environment(seed=seed)
    start = env.now
    process = env.process(builder(env))
    value = env.run(until=process)
    return ExperimentResult(value=value, elapsed_ms=env.now - start, env=env)
