"""Suppressions, the baseline file, reporters, and CLI exit codes."""

import json
import textwrap

import pytest

from repro.analysis import lint_source, render_json, render_text
from repro.analysis.baseline import (
    Baseline,
    BaselineError,
    Suppression,
    _parse_toml_subset,
)
from repro.analysis.core import Finding, LintResult, lint_paths
from repro.analysis.__main__ import run

_BAD = textwrap.dedent(
    """
    import time

    def stamp():
        return time.time()
    """
)

_CLEAN = textwrap.dedent(
    """
    def stamp(env):
        return env.now
    """
)


# ----------------------------------------------------------------------
# Inline suppressions
# ----------------------------------------------------------------------
def test_inline_suppression_same_line():
    src = _BAD.replace("time.time()", "time.time()  # hnslint: disable=SIM001")
    assert lint_source(src) == []


def test_inline_suppression_comment_line_above():
    src = textwrap.dedent(
        """
        import time

        def stamp():
            # hnslint: disable=SIM001
            return time.time()
        """
    )
    assert lint_source(src) == []


def test_inline_suppression_without_codes_suppresses_all():
    src = _BAD.replace("time.time()", "time.time()  # hnslint: disable")
    assert lint_source(src) == []


def test_inline_suppression_wrong_code_does_not_apply():
    src = _BAD.replace("time.time()", "time.time()  # hnslint: disable=SIM002")
    assert [f.rule for f in lint_source(src)] == ["SIM001"]


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
_BASELINE_TEXT = """
# reviewed exceptions
[[suppression]]
rule = "SIM001"
path = "src/repro/sim/rng.py"
contains = "random.Random"
justification = "the one sanctioned wrapper"

[[suppression]]
rule = "SIM003"
path = "resolver.py"  # suffix match
justification = "entry captured by value"
"""


def _finding(rule, path, snippet):
    return Finding(
        rule=rule, path=path, line=1, col=0, message="m", snippet=snippet
    )


def test_baseline_structural_matching():
    baseline = Baseline.loads(_BASELINE_TEXT)
    assert len(baseline) == 2
    assert baseline.matches(
        _finding("SIM001", "src/repro/sim/rng.py", "x = random.Random(seed)")
    )
    # wrong snippet -> contains filter rejects
    assert not baseline.matches(
        _finding("SIM001", "src/repro/sim/rng.py", "x = time.time()")
    )
    # suffix path match, no contains filter
    assert baseline.matches(
        _finding("SIM003", "src/repro/bind/resolver.py", "anything")
    )
    # wrong rule
    assert not baseline.matches(
        _finding("SIM002", "src/repro/bind/resolver.py", "anything")
    )


def test_baseline_fallback_parser_agrees_with_tomllib():
    data = _parse_toml_subset(_BASELINE_TEXT)
    assert [entry["rule"] for entry in data["suppression"]] == [
        "SIM001",
        "SIM003",
    ]
    assert data["suppression"][1]["path"] == "resolver.py"
    try:
        import tomllib
    except ModuleNotFoundError:
        return
    assert tomllib.loads(_BASELINE_TEXT)["suppression"] == data["suppression"]


def test_baseline_requires_justification():
    with pytest.raises(BaselineError, match="missing key 'justification'"):
        Baseline.loads('[[suppression]]\nrule = "SIM001"\npath = "x.py"\n')
    with pytest.raises(BaselineError, match="empty justification"):
        Baseline.loads(
            '[[suppression]]\nrule = "SIM001"\npath = "x.py"\n'
            'justification = "  "\n'
        )


def test_baseline_fallback_rejects_non_string_values():
    with pytest.raises(BaselineError, match="only basic strings"):
        _parse_toml_subset('[[suppression]]\nrule = 3\n')


def test_repo_baseline_loads_and_every_entry_is_justified(tmp_path):
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[2]
    baseline = Baseline.load(root / "hnslint-baseline.toml")
    assert len(baseline) > 0
    for suppression in baseline.suppressions:
        assert suppression.justification.strip()


# ----------------------------------------------------------------------
# lint_paths + baseline
# ----------------------------------------------------------------------
def test_lint_paths_counts_baselined_findings(tmp_path):
    bad = tmp_path / "clocky.py"
    bad.write_text(_BAD, encoding="utf-8")
    clean = tmp_path / "clean.py"
    clean.write_text(_CLEAN, encoding="utf-8")

    unbaselined = lint_paths([tmp_path])
    assert unbaselined.files_scanned == 2
    assert [f.rule for f in unbaselined.findings] == ["SIM001"]
    assert not unbaselined.ok

    baseline = Baseline(
        [Suppression(rule="SIM001", path="clocky.py", justification="test")]
    )
    baselined = lint_paths([tmp_path], baseline=baseline)
    assert baselined.ok
    assert baselined.baselined == 1


def test_lint_paths_records_parse_errors(tmp_path):
    (tmp_path / "broken.py").write_text("def f(:\n", encoding="utf-8")
    result = lint_paths([tmp_path])
    assert not result.ok
    assert len(result.parse_errors) == 1


# ----------------------------------------------------------------------
# Reporters
# ----------------------------------------------------------------------
def test_render_text_summary_and_finding_lines(tmp_path):
    bad = tmp_path / "clocky.py"
    bad.write_text(_BAD, encoding="utf-8")
    result = lint_paths([bad])
    text = render_text(result)
    assert "clocky.py:5:12: SIM001" in text
    assert "hnslint: 1 files scanned, 1 findings (SIM001: 1)" in text


def test_render_json_is_stable_and_versioned(tmp_path):
    bad = tmp_path / "clocky.py"
    bad.write_text(_BAD, encoding="utf-8")
    result = lint_paths([bad])
    payload = json.loads(render_json(result))
    assert payload["version"] == 4
    assert payload["tool"] == "hnslint"
    assert payload["ok"] is False
    assert payload["counts"] == {"SIM001": 1}
    finding = payload["findings"][0]
    assert finding["rule"] == "SIM001"
    assert finding["line"] == 5
    # stable: same input, same output
    assert render_json(result) == render_json(result)


def test_render_json_ok_ands_determinism():
    from repro.analysis.determinism import ScenarioCheck, ScenarioPass

    clean = LintResult(findings=[], files_scanned=1)
    bad_check = ScenarioCheck(
        scenario="s", seed=0, ok=False, digest_plain="a", digest_traced="a",
        perturb_seeds=(1,), digests_perturbed=("b",),
        perturbation_effective=True, first_divergence="replay: line 0",
    )
    scenarios = ScenarioPass(checks=[bad_check])
    payload = json.loads(render_json(clean, scenarios))
    assert payload["ok"] is False
    assert payload["scenarios"][0]["first_divergence"] == "replay: line 0"
    text = render_text(clean, scenarios)
    assert "scenario s: FAILED" in text
    assert "first divergence: replay: line 0" in text


# ----------------------------------------------------------------------
# CLI exit codes
# ----------------------------------------------------------------------
def test_cli_exits_zero_on_clean_file(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text(_CLEAN, encoding="utf-8")
    assert run([str(clean), "--no-baseline"]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_cli_exits_nonzero_on_finding(tmp_path, capsys):
    bad = tmp_path / "clocky.py"
    bad.write_text(_BAD, encoding="utf-8")
    assert run([str(bad), "--no-baseline"]) == 1
    assert "SIM001" in capsys.readouterr().out


def test_cli_json_format(tmp_path, capsys):
    bad = tmp_path / "clocky.py"
    bad.write_text(_BAD, encoding="utf-8")
    assert run([str(bad), "--no-baseline", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == {"SIM001": 1}


def test_cli_list_rules(capsys):
    assert run(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("SIM001", "SIM002", "SIM003", "HNS001", "HNS003"):
        assert code in out


def test_repo_tree_is_lint_clean_under_checked_in_baseline(capsys):
    """The acceptance gate itself: src/repro lints clean with the baseline."""
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[2]
    exit_code = run(
        [
            str(root / "src" / "repro"),
            "--baseline",
            str(root / "hnslint-baseline.toml"),
        ]
    )
    assert exit_code == 0, capsys.readouterr().out


# ----------------------------------------------------------------------
# Stale suppressions and --check-baseline
# ----------------------------------------------------------------------
def test_lint_paths_reports_stale_suppressions(tmp_path):
    (tmp_path / "clocky.py").write_text(_BAD, encoding="utf-8")
    baseline = Baseline(
        [
            Suppression(rule="SIM001", path="clocky.py", justification="live"),
            Suppression(
                rule="HNS001",
                path="deleted_module.py",
                contains="cache.insert",
                justification="the offender was deleted two PRs ago",
            ),
        ]
    )
    result = lint_paths([tmp_path], baseline=baseline)
    assert result.baselined == 1
    assert result.stale_suppressions == [
        'HNS001 path="deleted_module.py" contains="cache.insert"'
    ]
    # Stale entries are report content, not findings: ok stays true.
    assert result.ok
    assert "stale baseline suppression: HNS001" in render_text(result)
    assert json.loads(render_json(result))["stale_suppressions"] == [
        'HNS001 path="deleted_module.py" contains="cache.insert"'
    ]


def test_cli_check_baseline_fails_on_stale_entry(tmp_path, capsys):
    (tmp_path / "clean.py").write_text(_CLEAN, encoding="utf-8")
    baseline_file = tmp_path / "baseline.toml"
    baseline_file.write_text(
        '[[suppression]]\nrule = "SIM001"\npath = "gone.py"\n'
        'justification = "module deleted"\n',
        encoding="utf-8",
    )
    args = [str(tmp_path), "--baseline", str(baseline_file)]
    # Without the flag the stale entry is report-only...
    assert run(args) == 0
    capsys.readouterr()
    # ...with it, the gate fails until the entry is pruned.
    assert run(args + ["--check-baseline"]) == 1
    assert "stale baseline suppression" in capsys.readouterr().out


# ----------------------------------------------------------------------
# LINT001: unused-pragma meta-findings
# ----------------------------------------------------------------------
def test_lint001_flags_fully_unused_pragma():
    findings = lint_source(
        "x = 1  # hnslint: disable\n", check_pragmas=True
    )
    assert [f.rule for f in findings] == ["LINT001"]
    assert "nothing on this line" in findings[0].message


def test_lint001_flags_dead_codes_individually():
    src = _BAD.replace(
        "time.time()", "time.time()  # hnslint: disable=SIM001, HNS001"
    )
    findings = lint_source(src, check_pragmas=True)
    assert [f.rule for f in findings] == ["LINT001"]
    assert "HNS001" in findings[0].message
    assert "SIM001" not in findings[0].message  # SIM001 earned its keep


def test_lint001_quiet_when_pragma_is_used():
    src = _BAD.replace("time.time()", "time.time()  # hnslint: disable=SIM001")
    assert lint_source(src, check_pragmas=True) == []


def test_lint001_cannot_be_inline_suppressed():
    # A pragma cannot vouch for itself: disabling LINT001 on the same
    # line leaves the original pragma just as unused.
    findings = lint_source(
        "x = 1  # hnslint: disable=LINT001\n", check_pragmas=True
    )
    assert [f.rule for f in findings] == ["LINT001"]


def test_lint001_off_by_default_in_lint_source():
    assert lint_source("x = 1  # hnslint: disable\n") == []


def test_lint001_on_by_default_in_lint_paths(tmp_path):
    (tmp_path / "m.py").write_text(
        "x = 1  # hnslint: disable\n", encoding="utf-8"
    )
    result = lint_paths([tmp_path])
    assert [f.rule for f in result.findings] == ["LINT001"]
    quiet = lint_paths([tmp_path], check_pragmas=False)
    assert quiet.findings == []


def test_docstring_mentioning_pragma_syntax_is_not_a_pragma():
    src = '"""Docs: write `# hnslint: disable=SIM001` to suppress."""\n'
    assert lint_source(src, check_pragmas=True) == []
