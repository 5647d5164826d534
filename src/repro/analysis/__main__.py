"""``python -m repro.analysis`` — the hnslint command line.

Exit status 0 means every invariant held: no unsuppressed findings
(an unused or malformed pragma is one, LINT001), no parse errors, and
(with ``--scenarios``) every scenario replayed digest-identically
plain, traced and perturbed.  Anything else exits 1, which is what
CI's ``check`` job keys off; a usage error (an unknown ``--scenario``)
exits 2.
"""

from __future__ import annotations

import argparse
import sys
import typing

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
        for rule in default_rules():
            print(f"{rule.code} ({rule.name})")
            print(f"    {rule.rationale}")
        return 0

    scenarios = None
    if args.scenarios:
        try:
            scenarios = select_scenarios(args.scenario)
        except KeyError as err:
            parser.error(err.args[0])

    result = lint_paths(args.paths or ["src/repro"])

    scenario_pass = None
    if scenarios is not None:
        scenario_pass = check_scenarios(scenarios, seed=args.seed)

    if args.format == "json":
        print(render_json(result, scenario_pass))
    else:
        print(render_text(result, scenario_pass))

    ok = result.ok and (scenario_pass is None or scenario_pass.ok)
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(run())
