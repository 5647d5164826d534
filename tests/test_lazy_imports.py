"""What a process loads: package namespaces resolve names on first use.

Every package ``__init__`` under ``src/repro`` is one
:func:`repro.lazy.attach` table, so importing a package loads none of
its submodules and a name's submodule loads when the name is first
read.  The fresh-interpreter tests pin what that buys the perf ledger's
driver (``benchmarks/e2e``, imported here read-only): how much of
``src/repro`` it compiles at start-up, and that no measured phase
imports a module.
"""

from __future__ import annotations

import ast
import importlib
import json
import pathlib
import subprocess
import sys
import typing

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
E2E = ROOT / "benchmarks" / "e2e"

#: ``src/repro`` lines the driver's import set may load (20 339 when every
#: package ``__init__`` imported all of its submodules)
DRIVER_LINES = 16_000

#: modules no ledger workload runs, so the driver must not load them
NOT_LOADED = [
    *(f"repro.analysis.{m}" for m in (
        "atomicity", "callgraph", "core", "perturb", "report",
        "rules_sim",
    )),
    "repro.harness.ablation", "repro.harness.tables",
    "repro.obs.critical_path", "repro.obs.export",
    "repro.core.model", "repro.hcsfs.client",
    "repro.workloads.generator", "repro.workloads.zipf",
]

_PREAMBLE = f"""
import json, sys
sys.path[:0] = [{str(SRC)!r}, {str(E2E)!r}]
def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "repro")
"""

#: ``import repro.sim``, then the driver's imports (as ``run.py`` makes them)
_DRIVER_SET = _PREAMBLE + """
import repro.sim
sim_only = loaded()
import layers, workloads
from repro.analysis.determinism import run_digest
print(json.dumps({"sim": sim_only, "driver": loaded()}))
"""

#: one ledger workload, prepared, then measured between two snapshots
_MEASURE = _PREAMBLE + """
import layers, workloads
from repro.analysis.determinism import run_digest
name = sys.argv[1]
workload = workloads.WORKLOADS[name]
prepared = workload.prepare(7, max(1, workload.ops // 50))
before = set(sys.modules)
outcome = prepared.measure()
print(json.dumps({"failed": outcome.failed, "imported": sorted(set(sys.modules) - before)}))
"""

WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _fresh(script: str, *args: str) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def _lines(module: str) -> int:
    parts = module.split(".")
    path = SRC.joinpath(*parts).with_suffix(".py")
    if not path.exists():
        path = SRC.joinpath(*parts, "__init__.py")
    return len(path.read_text().splitlines())


def test_driver_import_set_is_what_the_ledger_runs():
    result = _fresh(_DRIVER_SET)
    assert result["sim"] == ["repro", "repro.lazy", "repro.sim"]
    driver = result["driver"]
    assert sum(_lines(module) for module in driver) <= DRIVER_LINES
    assert not set(driver) & set(NOT_LOADED)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_measured_phase_imports_nothing(workload):
    result = _fresh(_MEASURE, workload)
    assert result["failed"] == 0
    assert result["imported"] == []


# ----------------------------------------------------------------------
# Every package namespace
# ----------------------------------------------------------------------
PACKAGES = sorted(
    ".".join(init.relative_to(SRC).parent.parts)
    for init in SRC.joinpath("repro").rglob("__init__.py")
    if init.parent != SRC / "repro"
)


def _table(package: str) -> dict:
    """The literal ``attach(__name__, {...})`` table of ``package``."""
    init = SRC.joinpath(*package.split("."), "__init__.py")
    calls = [
        node for node in ast.walk(ast.parse(init.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "attach"
    ]
    assert len(calls) == 1, f"{package}: one attach() table"
    return ast.literal_eval(calls[0].args[1])


def _defines(module: typing.Any, name: str) -> bool:
    """Does ``module``'s top level define ``name`` (not import it)?"""
    for node in ast.parse(pathlib.Path(module.__file__).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name == name:
                return True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(getattr(target, "id", None) == name for target in targets):
                return True
    return False


@pytest.mark.parametrize("package", PACKAGES)
def test_package_namespace(package):
    module = importlib.import_module(package)
    table = _table(package)
    names = [name for submodule_names in table.values() for name in submodule_names]
    assert len(names) == len(set(names)), "each name is written once"
    assert set(names) <= set(module.__all__)
    for submodule, submodule_names in table.items():
        defining = importlib.import_module(f"{package}.{submodule}")
        for name in submodule_names:
            assert _defines(defining, name), f"{defining.__name__} defines {name}"
            assert getattr(module, name) is getattr(defining, name)
    assert set(module.__all__) <= set(dir(module))
    with pytest.raises(AttributeError, match=package):
        module.no_such_name
    star: dict = {}
    exec(f"from {package} import *", star)
    assert set(module.__all__) <= star.keys()
