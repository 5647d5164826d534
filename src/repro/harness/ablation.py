"""The ablation engine: knob grids, in-process execution, importance.

Every benchmark in this repository asks the same shaped question: with
one mechanism turned off, how much do p50/p99/availability/meta-queries
move against the everything-on baseline?  Tables 3.1 and 3.2 of the
paper are exactly that shape too.  This module makes the shape a
first-class object, following the AblationStudy pattern from
AE-Scientist's ``stage4_ablation`` and the aumai-ablation API:

- a **knob registry** (:class:`Knob`): named axes, each variant name
  written once beside the value a runner receives — the frozen
  :class:`~repro.resolution.PolicySet` axes and scenario parameters
  (TTLs, churn, stall probability) all fit;
- **grid expansion** (:meth:`AblationStudy.expand`): one baseline run,
  one run per non-baseline variant of each knob (the one-offs), and
  any named extra combinations;
- **execution** (:meth:`AblationStudy.execute`): every run inline, in
  expansion order; a raising runner becomes an ``error`` row and its
  siblings still complete;
- **importance scores** (:meth:`AblationStudy.importance`): per-knob,
  per-metric deltas and ratios against the baseline run.

Results serialize to the ``BENCH_*.json`` schema v2 (see
:data:`SCHEMA_VERSION` and docs/harness.md); the CI perf-regression
gate (:mod:`repro.harness.gate`) consumes that schema.
"""

from __future__ import annotations

import dataclasses
import json
import time
import traceback
import typing
import zlib

#: Version of the BENCH_*.json envelope this module emits.
SCHEMA_VERSION = 2

#: Wall-clock fields, excluded from cross-run equality and the
#: regression gate: they measure the host, not the simulation.
WALL_CLOCK_FIELDS = frozenset({"wall_s"})

#: The spec key of the all-baseline run.
BASELINE_KEY = "baseline"

#: One knob variant: its name (recorded in artifacts and keys) and the
#: value the grid's runner receives.
Variant = typing.Tuple[str, typing.Any]


def now_wall() -> float:
    """Host wall-clock seconds.

    The harness is the one place in ``src/repro`` allowed to read the
    host clock: wall time *is* the measured quantity (how long a grid
    takes to execute), never an input to any simulation.  Every other
    module takes time from ``env.now``.  Keeping the read behind this
    helper keeps the hnslint SIM001 suppression to a single line.
    """
    # hnslint: disable=SIM001 -- wall time is a grid's measured output, never a simulation input
    return time.perf_counter()


@dataclasses.dataclass(frozen=True)
class Knob:
    """One ablation axis: a name, its baseline variant, and ablations.

    Each variant is a ``(name, value)`` pair: artifacts and run keys
    record the name, the runner receives the value (a
    :class:`~repro.resolution.FastPathPolicy`, a TTL, a churn rate).
    """

    name: str
    baseline: Variant
    variants: typing.Tuple[Variant, ...]

    def __post_init__(self) -> None:
        names = [variant for variant, _ in self.variants]
        if self.baseline[0] in names:
            raise ValueError(
                f"knob {self.name!r}: baseline {self.baseline[0]!r} must not "
                "repeat in variants"
            )
        if len(set(names)) != len(names):
            raise ValueError(f"knob {self.name!r}: duplicate variants")

    def value(self, variant: str) -> typing.Any:
        """The value named ``variant``."""
        return dict((self.baseline,) + self.variants)[variant]


#: What a grid runner does: ``(knobs, seed, smoke) -> RunOutput``, where
#: ``knobs`` maps every knob name to its variant's value for this run.
Runner = typing.Callable[[typing.Mapping[str, typing.Any], int, bool], "RunOutput"]


@dataclasses.dataclass(frozen=True)
class GridDef:
    """A named ablation grid: knobs, a runner, and a base seed.

    ``extras`` are named assignments of variant names beyond the
    one-off pattern (e.g. an all-hit reference config that flips two
    knobs at once).
    """

    name: str
    knobs: typing.Tuple[Knob, ...]
    runner: Runner
    seed: int = 0
    extras: typing.Tuple[
        typing.Tuple[str, typing.Tuple[typing.Tuple[str, str], ...]], ...
    ] = ()

    def __post_init__(self) -> None:
        names = [knob.name for knob in self.knobs]
        if len(set(names)) != len(names):
            raise ValueError(f"grid {self.name!r}: duplicate knob names")


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """One fully-specified run: grid, knob assignment, seed.

    ``key`` is the stable identity used for ordering, seeding, and
    baseline comparison; ``knobs`` assigns a variant name to every knob.
    """

    grid: str
    key: str
    knobs: typing.Tuple[typing.Tuple[str, str], ...]
    seed: int
    smoke: bool

    def knob_dict(self) -> typing.Dict[str, str]:
        """The knob assignment as a plain dict."""
        return dict(self.knobs)


@dataclasses.dataclass
class RunOutput:
    """What a grid runner returns: metrics plus determinism evidence.

    A metric is ``None`` when the run produced nothing to measure it on.
    """

    metrics: typing.Dict[str, typing.Optional[float]]
    digest: typing.Optional[str] = None
    sim_ms: float = 0.0


@dataclasses.dataclass
class RunResult:
    """Outcome of executing one :class:`RunSpec`.

    ``status`` is ``"ok"`` or ``"error"``; a raising runner becomes a
    structured error result (its traceback in ``error``) instead of
    stopping the grid.
    """

    spec: RunSpec
    status: str
    metrics: typing.Dict[str, typing.Optional[float]]
    digest: typing.Optional[str]
    sim_ms: float
    wall_s: float
    error: typing.Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the run completed without raising."""
        return self.status == "ok"


def derive_seed(base_seed: int, grid: str, key: str) -> int:
    """A per-run seed, stable across sessions.

    Derived from the spec identity with crc32 (never ``hash()``, which
    is salted per process), so every run gets the same seed each time.
    """
    tag = zlib.crc32(f"{grid}:{key}".encode("utf-8"))
    return (base_seed * 1_000_003 + tag) % 2_147_483_647


def execute_spec(grid: GridDef, spec: RunSpec) -> RunResult:
    """Run one spec of ``grid`` to completion; never raises."""
    start = now_wall()
    try:
        names = spec.knob_dict()
        values = {knob.name: knob.value(names[knob.name]) for knob in grid.knobs}
        output = grid.runner(values, spec.seed, spec.smoke)
        return RunResult(
            spec=spec,
            status="ok",
            metrics=dict(output.metrics),
            digest=output.digest,
            sim_ms=output.sim_ms,
            wall_s=now_wall() - start,
        )
    except Exception:
        return RunResult(
            spec=spec,
            status="error",
            metrics={},
            digest=None,
            sim_ms=0.0,
            wall_s=now_wall() - start,
            error=traceback.format_exc(),
        )


class AblationStudy:
    """Expand a :class:`GridDef` into runs, execute them, score knobs."""

    def __init__(self, grid: GridDef, smoke: bool = False):
        self.grid = grid
        self.smoke = smoke

    def _spec(
        self, key: str, assignment: typing.Mapping[str, str]
    ) -> RunSpec:
        knobs = tuple(
            (knob.name, assignment[knob.name]) for knob in self.grid.knobs
        )
        return RunSpec(
            grid=self.grid.name,
            key=key,
            knobs=knobs,
            seed=derive_seed(self.grid.seed, self.grid.name, key),
            smoke=self.smoke,
        )

    def expand(self) -> typing.List[RunSpec]:
        """Baseline, then the one-offs, then the extras.

        Order is deterministic: baseline first, then each knob's
        ablation variants in registry order, then the named extras.
        Keys never repeat: an extra that duplicates an earlier spec's
        assignment is skipped.
        """
        baseline = {knob.name: knob.baseline[0] for knob in self.grid.knobs}
        specs = [self._spec(BASELINE_KEY, baseline)]
        seen = {tuple(sorted(baseline.items()))}

        def add(key: str, assignment: typing.Mapping[str, str]) -> None:
            fingerprint = tuple(sorted(assignment.items()))
            if fingerprint in seen:
                return
            seen.add(fingerprint)
            specs.append(self._spec(key, assignment))

        for knob in self.grid.knobs:
            for variant, _ in knob.variants:
                add(f"{knob.name}={variant}", {**baseline, knob.name: variant})
        for extra_key, pairs in self.grid.extras:
            add(extra_key, {**baseline, **dict(pairs)})
        return specs

    def execute(
        self, specs: typing.Optional[typing.Sequence[RunSpec]] = None
    ) -> typing.List[RunResult]:
        """Run every spec (default: :meth:`expand`'s) in order."""
        if specs is None:
            specs = self.expand()
        return [execute_spec(self.grid, spec) for spec in specs]

    def importance(
        self, results: typing.Sequence[RunResult]
    ) -> typing.Dict[str, typing.Dict[str, typing.Dict[str, float]]]:
        """Per-knob importance: metric deltas of each one-off vs baseline.

        Returns ``{one_off_key: {metric: {baseline, value, delta,
        ratio}}}``; ``ratio`` is ``value / baseline`` (0 treated as
        absent).  Only one-off runs (keys of the form ``knob=variant``
        produced by :meth:`expand`) participate; extras are comparison
        rows, not component scores.
        """
        by_key = {result.spec.key: result for result in results}
        base = by_key.get(BASELINE_KEY)
        if base is None or not base.ok:
            return {}
        one_off_keys = {
            f"{knob.name}={variant}"
            for knob in self.grid.knobs
            for variant, _ in knob.variants
        }
        scores: typing.Dict[str, typing.Dict[str, typing.Dict[str, float]]] = {}
        for key, result in by_key.items():
            if key not in one_off_keys or not result.ok:
                continue
            per_metric: typing.Dict[str, typing.Dict[str, float]] = {}
            for metric, value in sorted(result.metrics.items()):
                base_metric = base.metrics.get(metric)
                if value is None or base_metric is None:
                    continue
                baseline_value = float(base_metric)
                delta = float(value) - baseline_value
                entry = {
                    "baseline": baseline_value,
                    "value": float(value),
                    "delta": delta,
                }
                if baseline_value:
                    entry["ratio"] = float(value) / baseline_value
                per_metric[metric] = entry
            scores[key] = per_metric
        return scores


# ----------------------------------------------------------------------
# Serialization: BENCH_*.json schema v2
# ----------------------------------------------------------------------
def study_payload(
    study: AblationStudy,
    results: typing.Sequence[RunResult],
    wall_s: float,
) -> typing.Dict[str, object]:
    """The schema-v2 envelope for one executed study.

    Everything except the :data:`WALL_CLOCK_FIELDS` is a deterministic
    function of (grid, smoke): the CI gate relies on that.
    """
    runs: typing.List[typing.Dict[str, object]] = []
    for result in results:
        row: typing.Dict[str, object] = {
            "key": result.spec.key,
            "knobs": dict(result.spec.knobs),
            "seed": result.spec.seed,
            "status": result.status,
            "digest": result.digest,
            "sim_ms": result.sim_ms,
            "wall_s": result.wall_s,
            "metrics": dict(sorted(result.metrics.items())),
        }
        if result.error is not None:
            row["error"] = result.error.splitlines()[-1]
        runs.append(row)
    return {
        "schema_version": SCHEMA_VERSION,
        "grid": study.grid.name,
        "smoke": study.smoke,
        "wall_s": wall_s,
        "runs": runs,
        "importance": study.importance(results),
    }


def dump_payload(payload: typing.Mapping[str, object]) -> str:
    """Canonical JSON serialization for BENCH artifacts.

    Strict JSON: a ``NaN`` or infinite metric raises ``ValueError``
    here rather than landing in an artifact no other parser accepts.
    """
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_payload(path: str, payload: typing.Mapping[str, object]) -> None:
    """Write one artifact to ``path`` in canonical form."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_payload(payload))
