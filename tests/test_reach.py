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
    # 150 before the parameter census joined the reach census
    assert len(TOOL.read_text().splitlines()) <= 200


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


def test_check_fails_when_src_changes_during_the_run(monkeypatch, capsys):
    """Function keys read at the start no longer match a tree edited
    mid-run, so the census reports the edit instead of miscounting."""
    trees = iter([({}, {}), ({"repro.new": 1}, {})])
    monkeypatch.setattr(reach, "defined", lambda: next(trees))
    monkeypatch.setattr(reach, "surfaces", lambda tmp: {"ok": [sys.executable, "-c", "pass"]})
    assert reach.main(["--check"]) == 1
    assert "reach: src/repro changed during the run" in capsys.readouterr().err


def test_a_traced_run_records_each_defaulted_parameters_values(tmp_path):
    """A function's and a ``repro`` dataclass's defaulted parameters are
    recorded on each fresh entry, as reprs."""
    code = ("from repro.sim import ConstantLatency, UniformLatency; "
            "from repro.resolution import ResolutionPolicy; "
            "ConstantLatency(1.0); ConstantLatency(2.0); "
            "[UniformLatency(1.0, 2.0, per_byte_ms=b) for b in (0.5, 0.25)]; "
            "ResolutionPolicy(attempts=2); ResolutionPolicy(attempts=2)")
    run = reach.trace([sys.executable, "-c", code], str(tmp_path))
    assert run["rc"] == 0
    params = run["params"]
    assert params["repro.sim.latency:ConstantLatency.__init__(per_byte_ms)"] == {"0.0"}
    assert params["repro.sim.latency:UniformLatency.__init__(per_byte_ms)"] == {"0.5", "0.25"}
    assert "2" in params["repro.resolution:ResolutionPolicy(attempts)"]


def test_the_table_lists_single_values_less_deployment_settings():
    params = {"m:f(ttl)": {"1"}, "m:f(size)": {"1", "2"}, "m:f(host)": {"<object>"},
              "m:f(address)": {"'10.0.0.1'"}, "m:f(port)": {"53"}, "m:g(secret)": {"'s'"}}
    assert reach.single_valued(params) == {"m:f(ttl)": "1"}
