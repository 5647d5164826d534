"""The reach census (``tools/reach.py``): its tracer and its check."""

import importlib.util
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "reach.py"

_spec = importlib.util.spec_from_file_location("reach", TOOL)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


def test_the_tool_stays_small():
    assert len(TOOL.read_text().splitlines()) <= 150


def test_one_traced_scenario_marks_what_it_imports(tmp_path):
    run = reach.trace([sys.executable, "-c", reach.SCENARIOS, "import_all_local"], str(tmp_path))
    assert run["rc"] == 0
    imported = {reach.module_of(code[0]) for code in run["codes"]}
    assert "repro.bind.resolver" in imported
    assert "repro.harness.gate" not in imported


def test_check_fails_when_a_surface_fails(monkeypatch, capsys):
    """A surface that exits non-zero fails ``--check``; with no modules
    to import, its exit code is the only thing the check can read."""
    monkeypatch.setattr(reach, "defined", lambda: ({}, {}))
    argv = {"boom": [sys.executable, "-c", "raise SystemExit(3)"]}
    monkeypatch.setattr(reach, "surfaces", lambda tmp: argv)
    assert reach.main(["--check"]) == 1
    assert "reach: boom exited 3" in capsys.readouterr().err
    assert reach.main([]) == 0
    argv["boom"] = [sys.executable, "-c", "pass"]
    assert reach.main(["--check"]) == 0
