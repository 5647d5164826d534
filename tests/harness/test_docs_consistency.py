"""Documentation stays consistent with the code it describes."""

import json
import pathlib
import re


ROOT = pathlib.Path(__file__).resolve().parents[2]


def read(name):
    return (ROOT / name).read_text(encoding="utf-8")


def test_required_documents_exist():
    for name in (
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "docs/architecture.md",
        "docs/calibration.md",
    ):
        assert (ROOT / name).is_file(), name


def test_readme_examples_all_exist():
    readme = read("README.md")
    for match in re.findall(r"examples/([a-z_]+\.py)", readme):
        assert (ROOT / "examples" / match).is_file(), match


def assert_cited_files_exist(name):
    """Every bench, test and root artifact a document names is a file."""
    text = read(name)
    for pattern in (
        r"benchmarks/bench_[a-z0-9_]+\.py",
        r"tests/[a-z0-9_/]+\.py",
        r"\bBENCH_[a-z0-9_]+\.json",
    ):
        for match in set(re.findall(pattern, text)):
            assert (ROOT / match).is_file(), f"{name} cites {match}"


def test_design_bench_targets_all_exist():
    assert_cited_files_exist("DESIGN.md")


def test_experiments_references_real_benches_and_tests():
    """A document cannot cite a deleted file."""
    docs = sorted(p.relative_to(ROOT).as_posix() for p in ROOT.glob("docs/*.md"))
    for name in ["EXPERIMENTS.md", "README.md", *docs]:
        assert_cited_files_exist(name)


def test_readme_packages_all_importable():
    import importlib

    readme = read("README.md")
    for match in set(re.findall(r"^repro\.[a-z_.]+", readme, flags=re.M)):
        importlib.import_module(match.rstrip("."))


def test_every_source_module_has_a_docstring():
    import ast

    missing = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if not ast.get_docstring(tree):
            missing.append(str(path.relative_to(ROOT)))
    assert not missing, missing


def test_every_public_class_and_function_documented():
    """Public API surface (non-underscore, module level) carries docs."""
    import ast

    undocumented = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name.startswith("_"):
                    continue
                if not ast.get_docstring(node):
                    undocumented.append(
                        f"{path.relative_to(ROOT)}:{node.name}"
                    )
    assert not undocumented, undocumented


def test_results_md_is_the_generated_report():
    """RESULTS.md is the report's output, byte for byte, and shows every
    metric of every committed grid artifact."""
    from repro.harness.report import generate_report

    results = read("RESULTS.md")
    assert results == generate_report(str(ROOT)) + "\n"
    for path in ROOT.glob("BENCH_ablation_*.json"):
        for run in json.loads(path.read_text(encoding="utf-8"))["runs"]:
            for metric in run["metrics"]:
                assert metric in results, (path.name, metric)
