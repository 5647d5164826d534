"""The CI perf-regression gate: fresh BENCH artifacts vs committed ones.

``python -m repro.harness.gate --fresh <dir> --baseline <dir>`` loads
every schema-v2 ``BENCH_ablation_*.json`` in the two directories and
fails (exit 1) when the fresh run regressed:

- any **digest** differs — the simulation took a different trajectory,
  which in a deterministic simulator means behaviour changed;
- any **p99 metric** regressed beyond the tolerance (default 10%,
  ``--p99-tolerance``) — slower tails are the one number every PR in
  this repository exists to push down;
- any **availability** metric dropped beyond the same tolerance;
- a committed baseline has no fresh artifact, or a run present in the
  baseline is **missing** (or now errors) in the fresh artifact, or the
  smoke flags disagree (full-size numbers are never compared against
  smoke numbers);
- an artifact is not strict JSON: a bare ``NaN`` or ``Infinity`` is a
  schema violation, not a number to compare.

Wall-clock fields (:data:`~repro.harness.ablation.WALL_CLOCK_FIELDS`)
never participate: they measure the runner host, not the system.
Improvements (faster p99, higher availability) always pass — the gate
is one-sided by design, and refreshing the committed baselines is how
an intentional improvement lands.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys
import typing

from repro.harness.ablation import SCHEMA_VERSION, WALL_CLOCK_FIELDS


@dataclasses.dataclass(frozen=True)
class Violation:
    """One gate failure: where, what, and the two values."""

    artifact: str
    path: str
    kind: str  # "digest" | "p99" | "availability" | "schema" | "missing"
    message: str

    def render(self) -> str:
        """One human-readable report line."""
        return f"{self.artifact}: [{self.kind}] {self.path}: {self.message}"


def _reject_constant(token: str) -> typing.NoReturn:
    raise ValueError(f"non-finite value {token} (artifacts must be strict JSON)")


def load_artifact(path: pathlib.Path) -> typing.Dict[str, object]:
    """Read one BENCH JSON file; raises ValueError on schema mismatch
    or on a ``NaN``/``Infinity`` constant."""
    try:
        data = json.loads(
            path.read_text(encoding="utf-8"), parse_constant=_reject_constant
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: artifact is not a JSON object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema_version {version!r} != {SCHEMA_VERSION} "
            "(re-emit with the current harness)"
        )
    return data


def _numeric_leaves(
    value: object, prefix: str = ""
) -> typing.Iterator[typing.Tuple[str, float]]:
    """Yield (dotted path, number) for every numeric leaf, wall aside."""
    if isinstance(value, dict):
        for key in sorted(value):
            if key in WALL_CLOCK_FIELDS:
                continue
            yield from _numeric_leaves(value[key], f"{prefix}{key}.")
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _numeric_leaves(item, f"{prefix}{index}.")
    elif isinstance(value, bool):
        return
    elif isinstance(value, (int, float)):
        yield prefix.rstrip("."), float(value)


def _digest_leaves(
    value: object, prefix: str = ""
) -> typing.Iterator[typing.Tuple[str, str]]:
    """Yield (dotted path, digest string) for every ``digest`` key."""
    if isinstance(value, dict):
        for key in sorted(value):
            child_prefix = f"{prefix}{key}."
            if key == "digest" and isinstance(value[key], str):
                yield child_prefix.rstrip("."), value[key]
            else:
                yield from _digest_leaves(value[key], child_prefix)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _digest_leaves(item, f"{prefix}{index}.")


def _last_segment(path: str) -> str:
    return path.rsplit(".", 1)[-1]


def compare_artifacts(
    name: str,
    fresh: typing.Mapping[str, object],
    baseline: typing.Mapping[str, object],
    p99_tolerance_pct: float = 10.0,
) -> typing.List[Violation]:
    """All gate violations of ``fresh`` against ``baseline``."""
    violations: typing.List[Violation] = []
    if bool(fresh.get("smoke")) != bool(baseline.get("smoke")):
        violations.append(
            Violation(
                name,
                "smoke",
                "schema",
                f"smoke flag mismatch: fresh={fresh.get('smoke')!r} vs "
                f"baseline={baseline.get('smoke')!r} — full-size and smoke "
                "numbers are not comparable",
            )
        )
        return violations

    fresh_digests = dict(_digest_leaves(dict(fresh)))
    for path, expected in _digest_leaves(dict(baseline)):
        actual = fresh_digests.get(path)
        if actual is None:
            violations.append(
                Violation(name, path, "missing", "digest absent in fresh run")
            )
        elif actual != expected:
            violations.append(
                Violation(
                    name,
                    path,
                    "digest",
                    f"trajectory changed: {expected[:12]}… -> {actual[:12]}…",
                )
            )

    fresh_numbers = dict(_numeric_leaves(dict(fresh)))
    tolerance = p99_tolerance_pct / 100.0
    for path, base_value in _numeric_leaves(dict(baseline)):
        segment = _last_segment(path)
        is_p99 = segment.startswith("p99")
        is_availability = segment == "availability"
        if not (is_p99 or is_availability):
            continue
        value = fresh_numbers.get(path)
        if value is None:
            violations.append(
                Violation(
                    name, path, "missing", "metric absent in fresh run"
                )
            )
            continue
        if value != value or base_value != base_value:  # NaN: no samples
            continue
        if is_p99 and value > base_value * (1.0 + tolerance):
            pct = 100.0 * (value - base_value) / base_value if base_value else float("inf")
            violations.append(
                Violation(
                    name,
                    path,
                    "p99",
                    f"regressed {base_value:.3f} -> {value:.3f} "
                    f"(+{pct:.1f}%, tolerance {p99_tolerance_pct:.0f}%)",
                )
            )
        elif is_availability and value < base_value * (1.0 - tolerance):
            violations.append(
                Violation(
                    name,
                    path,
                    "availability",
                    f"dropped {base_value:.4f} -> {value:.4f} "
                    f"(tolerance {p99_tolerance_pct:.0f}%)",
                )
            )
    return violations


#: The artifacts the gate compares unless ``--pattern`` narrows it to
#: one grid.
DEFAULT_PATTERN = "BENCH_ablation_*.json"


def run_gate(
    fresh_dir: pathlib.Path,
    baseline_dir: pathlib.Path,
    p99_tolerance_pct: float = 10.0,
    pattern: str = DEFAULT_PATTERN,
) -> typing.Tuple[typing.List[Violation], typing.List[str]]:
    """Gate every committed baseline against its fresh artifact.

    Returns ``(violations, compared_names)``.  A baseline with no fresh
    counterpart is a violation (a grid that was dropped, renamed, or
    crashed before writing would otherwise stop being gated in
    silence); a fresh artifact with no baseline yet is skipped.  An
    empty baseline set is itself a violation, because a gate that
    compares nothing would silently pass forever.
    """
    violations: typing.List[Violation] = []
    compared: typing.List[str] = []
    for baseline_path in sorted(baseline_dir.glob(pattern)):
        file_name = baseline_path.name
        fresh_path = fresh_dir / file_name
        if not fresh_path.is_file():
            violations.append(
                Violation(
                    file_name,
                    "-",
                    "missing",
                    f"committed baseline has no fresh artifact in {fresh_dir}",
                )
            )
            continue
        try:
            fresh = load_artifact(fresh_path)
            baseline = load_artifact(baseline_path)
        except ValueError as exc:
            violations.append(
                Violation(file_name, "-", "schema", str(exc))
            )
            continue
        compared.append(file_name)
        violations.extend(
            compare_artifacts(file_name, fresh, baseline, p99_tolerance_pct)
        )
    if not compared and not violations:
        violations.append(
            Violation(
                "(gate)",
                "-",
                "schema",
                f"no {pattern} baselines in {baseline_dir}; "
                "the gate compared nothing",
            )
        )
    return violations, compared


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    """CLI entry point; exit 0 iff every compared artifact passes."""
    parser = argparse.ArgumentParser(
        prog="repro.harness.gate",
        description="Compare fresh BENCH_ablation_*.json artifacts against committed baselines.",
    )
    parser.add_argument("--fresh", required=True, help="directory with fresh artifacts")
    parser.add_argument(
        "--baseline", required=True, help="directory with committed baselines"
    )
    parser.add_argument(
        "--p99-tolerance",
        type=float,
        default=10.0,
        help="max p99 regression (and availability drop) in percent",
    )
    parser.add_argument(
        "--pattern", default=DEFAULT_PATTERN, help="artifact glob (gate one grid)"
    )
    args = parser.parse_args(argv)
    violations, compared = run_gate(
        pathlib.Path(args.fresh),
        pathlib.Path(args.baseline),
        p99_tolerance_pct=args.p99_tolerance,
        pattern=args.pattern,
    )
    for file_name in compared:
        print(f"compared {file_name}")
    if violations:
        print(f"\nperf gate FAILED ({len(violations)} violation(s)):")
        for violation in violations:
            print(f"  {violation.render()}")
        return 1
    print(f"perf gate passed ({len(compared)} artifact(s), no regressions)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
