"""The reach census (``tools/reach.py``): its justifications and its tracer."""

import importlib.util
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "reach.py"

_spec = importlib.util.spec_from_file_location("reach", TOOL)
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


def test_every_justified_row_names_an_existing_module():
    modules, _functions = reach.defined()
    named = [module for row in reach.JUSTIFIED for module in row]
    assert named and set(named) <= set(modules)
    assert all(why for why in reach.JUSTIFIED.values())


def test_the_tool_stays_small():
    assert len(TOOL.read_text().splitlines()) <= 150


def test_one_traced_scenario_marks_what_it_imports(tmp_path):
    run = reach.trace([sys.executable, "-c", reach.SCENARIOS, "import_all_local"], str(tmp_path))
    assert run["rc"] == 0
    imported = {reach.module_of(code[0]) for code in run["codes"]}
    assert "repro.bind.resolver" in imported
    assert "repro.yellowpages.server" not in imported
