"""Inline suppressions, reporters, and CLI exit codes."""

import json
import textwrap

from repro.analysis import lint_source, render_json, render_text
from repro.analysis.core import (
    LintResult,
    ModuleSource,
    default_rules,
    iter_python_files,
    lint_paths,
)
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
    src = _BAD.replace(
        "time.time()", "time.time()  # hnslint: disable=SIM001 -- test clock"
    )
    assert lint_source(src) == []


def test_inline_suppression_comment_line_above():
    src = textwrap.dedent(
        """
        import time

        def stamp():
            # hnslint: disable=SIM001 -- test clock
            return time.time()
        """
    )
    assert lint_source(src) == []


#: Pragmas that silence nothing: a wrong code, then every way to break
#: the ``disable=CODE[,CODE] -- reason`` grammar.
_NON_SUPPRESSING = {
    "disable=SIM002 -- wrong code": "SIM002 silence(s) nothing",
    "disable=SIM001": "malformed pragma",
    "disable=SIM001 --": "malformed pragma",
    "disable=SIM001 RNG wrapper is sanctioned": "malformed pragma",
    "disable -- all codes": "malformed pragma",
    "disable": "malformed pragma",
    "disable=sim001 -- lower case": "malformed pragma",
}


def test_inline_suppression_wrong_code_does_not_apply():
    for pragma, message in _NON_SUPPRESSING.items():
        src = _BAD.replace("time.time()", f"time.time()  # hnslint: {pragma}")
        findings = lint_source(src)
        assert [f.rule for f in findings] == ["LINT001", "SIM001"], pragma
        assert message in findings[0].message, pragma


# ----------------------------------------------------------------------
# lint_paths
# ----------------------------------------------------------------------
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
    assert payload["version"] == 5
    assert "baselined" not in payload and "stale_suppressions" not in payload
    assert payload["callgraph"]["functions"] == 1
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
    assert run([str(clean)]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_cli_exits_nonzero_on_finding(tmp_path, capsys):
    bad = tmp_path / "clocky.py"
    bad.write_text(_BAD, encoding="utf-8")
    assert run([str(bad)]) == 1
    assert "SIM001" in capsys.readouterr().out


def test_cli_json_format(tmp_path, capsys):
    bad = tmp_path / "clocky.py"
    bad.write_text(_BAD, encoding="utf-8")
    assert run([str(bad), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == {"SIM001": 1}


def test_cli_list_rules(capsys):
    assert run(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("SIM001", "SIM002", "SIM003", "HNS001", "HNS003"):
        assert code in out


def test_repo_tree_is_lint_clean_with_five_reviewed_pragmas():
    """The acceptance gate itself: src/repro lints clean, and the only
    exceptions are these seven reviewed pragmas (five until the meta
    store's mapping frame wrote the hit idiom out itself, six until
    FindNSM's address stage did; the test keeps its name).  Each
    silences its own line, and LINT001 fails any that silences nothing."""
    import pathlib

    src = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
    result = lint_paths([src])
    assert result.ok, render_text(result)
    assert result.suppressed == 7
    pragmas = sorted(
        (path.relative_to(src).as_posix(), code)
        for path in iter_python_files([src])
        for codes in ModuleSource(str(path), path.read_text(encoding="utf-8")).pragmas.values()
        for code in codes or ()
    )
    assert pragmas == [
        ("bind/resolver.py", "SIM003"),
        ("core/hns.py", "SIM003"),
        ("core/metastore.py", "SIM003"),
        ("core/metastore.py", "SIM003"),
        ("core/nsm.py", "SIM003"),
        ("harness/ablation.py", "SIM001"),
        ("sim/rng.py", "SIM001"),
    ]


# ----------------------------------------------------------------------
# LINT001: unused-pragma meta-findings
# ----------------------------------------------------------------------
def test_lint001_flags_fully_unused_pragma():
    findings = lint_source("x = 1  # hnslint: disable=SIM001 -- stale\n")
    assert [f.rule for f in findings] == ["LINT001"]
    assert "SIM001 silence(s) nothing" in findings[0].message


def test_lint001_flags_dead_codes_individually():
    src = _BAD.replace(
        "time.time()", "time.time()  # hnslint: disable=SIM001, HNS001 -- test clock"
    )
    findings = lint_source(src)
    assert [f.rule for f in findings] == ["LINT001"]
    assert "HNS001" in findings[0].message
    assert "SIM001" not in findings[0].message  # SIM001 earned its keep


def test_lint001_quiet_when_pragma_is_used():
    src = _BAD.replace(
        "time.time()", "time.time()  # hnslint: disable=SIM001 -- test clock"
    )
    assert lint_source(src) == []


def test_lint001_cannot_be_inline_suppressed():
    # A pragma cannot vouch for itself: disabling LINT001 on the same
    # line leaves the original pragma just as unused.
    findings = lint_source("x = 1  # hnslint: disable=LINT001 -- vouch\n")
    assert [f.rule for f in findings] == ["LINT001"]


def test_lint001_on_by_default_in_lint_paths(tmp_path):
    (tmp_path / "m.py").write_text(
        "x = 1  # hnslint: disable=SIM001 -- stale\n", encoding="utf-8"
    )
    result = lint_paths([tmp_path])
    assert [f.rule for f in result.findings] == ["LINT001"]
    # LINT001 runs when it is in the rule list, and only then.
    assert lint_paths([tmp_path], rules=default_rules()[:-1]).findings == []


def test_docstring_mentioning_pragma_syntax_is_not_a_pragma():
    src = '"""Docs: write `# hnslint: disable=SIM001 -- why` to suppress."""\n'
    assert lint_source(src) == []
