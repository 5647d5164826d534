"""The scenario pass: same seed, same trajectory — under any legal schedule.

Static rules (:mod:`repro.analysis.rules_sim`) catch wall-clock and
ambient-randomness *patterns*; this module checks the property itself.
Every scenario registered in :mod:`repro.workloads.scenarios` is built
six times with the same seed, and each run is reduced to a digest over

- the canonical trace serialization (every traced occurrence, in order,
  with sorted data keys),
- every stats counter value, and
- the final simulated clock.

The six runs, and the pair each one is checked against:

1. **plain** — the reference digest (the one the scenario pins);
2. **replay** — plain again; must equal run 1;
3. **traced** — span tracing (:mod:`repro.obs`) forced on; must equal
   run 1, because observing a run may not move it;
4. **perturbed** ×2 — with the schedule perturbator on
   (:mod:`repro.analysis.perturb`) so same-timestamp cohorts execute in
   seed-derived permuted orders;
5. **perturbed replay** — the first perturbation seed again; must equal
   the first perturbed run (one seed is one fixed schedule).

Any mismatch means something outside the seeded sandbox leaked into the
run — a host clock, the process RNG, dict-iteration order of a set, an
id()-keyed container — and ``first_divergence`` names the pair and the
first line where the trajectories part.

Perturbation is pure tie-break permutation: event times never move, so
a perturbed digest that differs from the plain one
(``perturbation_effective``) means the trajectory depends on FIFO
tie-breaking — informational, not a failure.
"""

from __future__ import annotations

import dataclasses
import hashlib
import typing

from repro.obs.span import Observability
from repro.sim.kernel import Environment

Builder = typing.Callable[[int], Environment]

#: Perturbation seeds derived per scenario.
PERTURB_RUNS = 2


@dataclasses.dataclass(frozen=True)
class ScenarioCheck:
    """One scenario's six runs.

    ``ok`` asserts the three replay properties: replay, traced and
    perturbed replay each equal the run they repeat.
    ``perturbation_effective`` is informational, not a failure.
    """

    scenario: str
    seed: int
    ok: bool
    digest_plain: str
    digest_traced: str
    perturb_seeds: typing.Tuple[int, ...]
    digests_perturbed: typing.Tuple[str, ...]
    perturbation_effective: bool
    first_divergence: str = ""

    def to_json(self) -> typing.Dict[str, object]:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class ScenarioPass:
    """Every checked scenario."""

    checks: typing.List[ScenarioCheck]

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)


def run_lines(env: Environment) -> typing.List[str]:
    """The canonical serialization of a finished run.

    Trace records first, then counters (sorted by name), then the final
    clock — every line participates in the digest.
    """
    lines = list(env.trace.canonical_lines())
    for name, value in sorted(env.stats.counters().items()):
        lines.append(f"counter|{name}|{value}")
    lines.append(f"clock|{env.now!r}")
    return lines


def run_digest(env: Environment) -> str:
    """sha256 over the canonical run lines of a finished environment."""
    return _digest(run_lines(env))


def first_divergence(
    lines_a: typing.Sequence[str], lines_b: typing.Sequence[str]
) -> str:
    """Where two runs' canonical lines first differ."""
    for index, (a, b) in enumerate(zip(lines_a, lines_b)):
        if a != b:
            return f"line {index}: {a!r} != {b!r}"
    if len(lines_a) != len(lines_b):
        shorter = min(len(lines_a), len(lines_b))
        longer = lines_a if len(lines_a) > len(lines_b) else lines_b
        return (
            f"line {shorter}: one run ends, the other continues with "
            f"{longer[shorter]!r}"
        )
    return "digests differ but serializations match (hash collision?)"


def check_scenario(name: str, builder: Builder, seed: int = 0) -> ScenarioCheck:
    """Build ``builder(seed)`` six times and compare the runs."""
    from repro.analysis.perturb import derive_seed, perturbed

    divergences: typing.List[str] = []

    def repeat(pair: str, reference: typing.List[str]) -> str:
        """One more run, checked against ``reference``; its digest."""
        lines = run_lines(builder(seed))
        if lines != reference:
            divergences.append(f"{pair}: {first_divergence(reference, lines)}")
        return _digest(lines)

    lines_plain = run_lines(builder(seed))
    digest_plain = _digest(lines_plain)
    repeat("replay", lines_plain)
    saved = Observability.default_enabled
    Observability.default_enabled = True
    try:
        digest_traced = repeat("traced", lines_plain)
    finally:
        Observability.default_enabled = saved

    perturb_seeds = tuple(derive_seed(seed, i) for i in range(PERTURB_RUNS))
    lines_perturbed: typing.List[typing.List[str]] = []
    for perturb_seed in perturb_seeds:
        with perturbed(perturb_seed):
            lines_perturbed.append(run_lines(builder(seed)))
    digests_perturbed = tuple(_digest(lines) for lines in lines_perturbed)
    with perturbed(perturb_seeds[0]):
        repeat("perturbed replay", lines_perturbed[0])

    return ScenarioCheck(
        scenario=name,
        seed=seed,
        ok=not divergences,
        digest_plain=digest_plain,
        digest_traced=digest_traced,
        perturb_seeds=perturb_seeds,
        digests_perturbed=digests_perturbed,
        perturbation_effective=any(
            digest != digest_plain for digest in digests_perturbed
        ),
        first_divergence=divergences[0] if divergences else "",
    )


def select_scenarios(
    names: typing.Optional[typing.Sequence[str]] = None,
    registry: typing.Optional[typing.Mapping[str, Builder]] = None,
) -> typing.Dict[str, Builder]:
    """The scenarios ``names`` picks from ``registry`` (all by default).

    ``registry`` defaults to every registered ``@scenario``; an unknown
    name raises ``KeyError`` naming the known ones.
    """
    if registry is None:
        from repro.workloads.scenarios import SCENARIOS

        registry = SCENARIOS
    if names is None:
        return dict(registry)
    unknown = [name for name in names if name not in registry]
    if unknown:
        raise KeyError(
            f"unknown scenario(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(registry))}"
        )
    return {name: registry[name] for name in names}


def check_scenarios(
    scenarios: typing.Mapping[str, Builder], seed: int = 0
) -> ScenarioPass:
    """Run :func:`check_scenario` over ``scenarios`` in name order."""
    return ScenarioPass(
        checks=[
            check_scenario(name, scenarios[name], seed=seed)
            for name in sorted(scenarios)
        ]
    )


def _digest(lines: typing.Sequence[str]) -> str:
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(line.encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()
