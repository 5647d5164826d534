"""``python -m repro.analysis`` — the hnslint command line.

Exit status 0 means every invariant held: no unsuppressed findings, no
parse errors, (with ``--scenarios``) every scenario replayed
digest-identically plain, traced and perturbed, and (with
``--check-baseline``) no stale baseline suppressions.  Anything else
exits 1, which is what CI's ``check`` job keys off; a usage error (an
unknown ``--scenario``) exits 2.
"""

from __future__ import annotations

import argparse
import sys
import typing

from repro.analysis.baseline import BASELINE_FILENAME, Baseline
from repro.analysis.core import default_rules, lint_paths
from repro.analysis.determinism import check_scenarios, select_scenarios
from repro.analysis.report import render_json, render_text


def build_parser() -> argparse.ArgumentParser:
    """The hnslint argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description=(
            "hnslint: repo-specific static analysis, plus a scenario "
            "pass that replays, traces and perturbs every scenario"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (json is stable and diffable)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help=f"baseline file (default: ./{BASELINE_FILENAME} if present)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file",
    )
    parser.add_argument(
        "--check-baseline",
        action="store_true",
        help="fail if any baseline suppression matched no finding "
        "(stale entries must be pruned, not accumulated)",
    )
    parser.add_argument(
        "--interprocedural",
        action="store_true",
        help="build the may-yield call graph and enable the "
        "interprocedural race rules (SIM004, SIM005)",
    )
    parser.add_argument(
        "--scenarios",
        action="store_true",
        help="run every registered scenario plain, replayed, traced and "
        "schedule-perturbed",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        help="restrict --scenarios to NAME (repeatable)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for --scenarios runs"
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule with its rationale and exit",
    )
    return parser


def run(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    """Lint and, with ``--scenarios``, check the scenarios; exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        from repro.analysis.atomicity import interprocedural_rules

        for rule in default_rules() + interprocedural_rules():
            print(f"{rule.code} ({rule.name})")
            print(f"    {rule.rationale}")
        return 0

    scenarios = None
    if args.scenarios:
        try:
            scenarios = select_scenarios(args.scenario)
        except KeyError as err:
            parser.error(err.args[0])

    baseline = None
    if not args.no_baseline:
        if args.baseline is not None:
            baseline = Baseline.load(args.baseline)
        else:
            baseline = Baseline.discover()
    result = lint_paths(
        args.paths or ["src/repro"],
        baseline=baseline,
        interprocedural=args.interprocedural,
    )

    scenario_pass = None
    if scenarios is not None:
        scenario_pass = check_scenarios(scenarios, seed=args.seed)

    if args.format == "json":
        print(render_json(result, scenario_pass))
    else:
        print(render_text(result, scenario_pass))

    ok = result.ok and (scenario_pass is None or scenario_pass.ok)
    if args.check_baseline and result.stale_suppressions:
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(run())
