"""Reporters: human-readable text and machine-readable JSON.

The JSON format is versioned and stable so future PRs can diff rule
counts across revisions the way ``BENCH_*.json`` diffs latency — the
lint equivalent of a benchmark trajectory.
"""

from __future__ import annotations

import json
import typing

from repro.analysis.core import LintResult
from repro.analysis.determinism import ScenarioPass

#: Bumped whenever a field changes meaning; additions are backwards
#: compatible and do not bump it.  v2: reports carry
#: ``stale_suppressions`` and (when the call graph was built) a
#: ``callgraph`` summary block.  v3: the scenario pass (``--scenarios``)
#: adds ``scenarios``.  v4: findings lose ``subject``, ``status`` and
#: ``witnesses``, and reports lose ``hazards``, with the sanitizer they
#: graded against.  v5: the baseline file is gone, so reports lose
#: ``baselined`` and ``stale_suppressions``; ``callgraph`` is always set.
JSON_FORMAT_VERSION = 5


def render_text(
    result: LintResult, scenarios: typing.Optional[ScenarioPass] = None
) -> str:
    """The human-facing report: one line per finding plus a summary."""
    lines: typing.List[str] = []
    for error in result.parse_errors:
        lines.append(f"parse error: {error}")
    for finding in result.findings:
        lines.append(str(finding))
        if finding.snippet:
            lines.append(f"    {finding.snippet}")
    if scenarios is not None:
        for check in scenarios.checks:
            effect = "tie-break " + (
                "sensitive" if check.perturbation_effective else "insensitive"
            )
            lines.append(
                f"scenario {check.scenario}: {'ok' if check.ok else 'FAILED'} "
                f"(seed {check.seed}, {effect})"
            )
            if check.first_divergence:
                lines.append(f"    first divergence: {check.first_divergence}")
    lines.append(_summary_line(result, scenarios))
    return "\n".join(lines)


def _summary_line(
    result: LintResult, scenarios: typing.Optional[ScenarioPass]
) -> str:
    counts = result.counts_by_rule()
    by_rule = (
        " (" + ", ".join(f"{rule}: {n}" for rule, n in counts.items()) + ")"
        if counts
        else ""
    )
    parts = [
        f"{result.files_scanned} files scanned",
        f"{len(result.findings)} findings{by_rule}",
        f"{result.suppressed} suppressed inline",
    ]
    if scenarios is not None:
        failed = sum(1 for check in scenarios.checks if not check.ok)
        parts.append(f"{len(scenarios.checks)} scenarios checked, {failed} failed")
    return "hnslint: " + ", ".join(parts)


def render_json(
    result: LintResult, scenarios: typing.Optional[ScenarioPass] = None
) -> str:
    """The stable machine-readable report (strict JSON: no NaN)."""
    payload: typing.Dict[str, object] = {
        "version": JSON_FORMAT_VERSION,
        "tool": "hnslint",
        "files_scanned": result.files_scanned,
        "findings": [finding.to_json() for finding in result.findings],
        "counts": result.counts_by_rule(),
        "suppressed": result.suppressed,
        "parse_errors": list(result.parse_errors),
        "callgraph": dict(result.callgraph),
        "ok": result.ok,
    }
    if scenarios is not None:
        payload["scenarios"] = [check.to_json() for check in scenarios.checks]
        payload["ok"] = result.ok and scenarios.ok
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
