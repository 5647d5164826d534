"""ruff/mypy gates, skipped where the tools are not installed.

The container-local tier-1 run does not ship ruff or mypy; CI's lint
job installs them and runs them directly, and these tests keep the
configuration honest wherever the tools happen to be available.
"""

import ast
import pathlib
import re
import shutil
import subprocess
import sys
import typing

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_clean():
    proc = subprocess.run(
        ["ruff", "check", "src", "tests", "benchmarks"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_typed_island_clean():
    proc = subprocess.run(
        ["mypy"], cwd=ROOT, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _typed_island() -> typing.List[pathlib.Path]:
    """The modules ``[tool.mypy] files`` lists (3.9 has no tomllib)."""
    text = (ROOT / "pyproject.toml").read_text()
    files = re.search(r"\[tool\.mypy\].*?^files = \[(.*?)\]", text, re.S | re.M)
    assert files, "pyproject.toml lists the typed island"
    modules = []
    for entry in re.findall(r'"([^"]+)"', files.group(1)):
        path = ROOT / entry
        modules.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return modules


def test_typed_island_imports_names_from_defining_modules():
    """mypy types a name read through a lazy package ``__getattr__`` as
    ``Any``, so the typed island imports each from its own submodule."""
    offenders = []
    for path in _typed_island():
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom) and node.module):
                continue
            package = ROOT / "src" / pathlib.Path(*node.module.split("."))
            if not (package / "__init__.py").exists():
                continue
            for alias in node.names:
                submodule = package / alias.name
                if not (submodule.with_suffix(".py").exists() or submodule.is_dir()):
                    rel = path.relative_to(ROOT)
                    offenders.append(f"{rel}:{node.lineno} {node.module}.{alias.name}")
    assert not offenders, offenders


def _hnslint(tree: pathlib.Path) -> "subprocess.CompletedProcess[str]":
    """``python -m repro.analysis <tree>``, the entry point CI's lint
    gate runs (over all of ``src/repro``, which tier-1 lints in process)."""
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", str(tree)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )


def test_hnslint_module_entrypoint_exits_zero(tmp_path):
    (tmp_path / "clean.py").write_text("def f(env):\n    return env.now\n")
    proc = _hnslint(tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 findings" in proc.stdout


def test_hnslint_module_entrypoint_exits_one_on_a_finding(tmp_path):
    (tmp_path / "clock.py").write_text("import time\n\nSTART = time.time()\n")
    proc = _hnslint(tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "SIM001" in proc.stdout
