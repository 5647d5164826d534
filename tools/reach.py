"""Reach census: which ``src/repro`` modules and functions the product runs.

A product surface is any run that is not a test.  Each runs in a child whose
generated ``sitecustomize.py`` (first on ``PYTHONPATH``, so grandchildren
inherit it) sets a ``sys.settrace`` hook that notes every code object entered
and every policy dataclass built.  Nothing is written inside the repository.
``PYTHONPATH=src python tools/reach.py [--tests] [--check]``
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC, PY = ROOT / "src", sys.executable

#: the hook; a policy is a ``repro.resolution`` dataclass named ``*Policy``
HOOK = """import atexit, json, os, sys, threading
codes, knobs = {{}}, set()
def hook(frame, event, arg):
    code = frame.f_code
    if id(code) not in codes: codes[id(code)] = code
    if code.co_name == "__init__" and code.co_filename == "<string>":
        cls, args = type(frame.f_locals.get("self")), frame.f_locals.items()
        if cls.__module__ == "repro.resolution" and cls.__name__.endswith("Policy"):
            knobs.update((cls.__name__, k, repr(v)) for k, v in args if k != "self" and k[0] != "_")
def dump():
    sys.settrace(None)
    hits = [(c.co_filename, c.co_firstlineno, getattr(c, "co_qualname", c.co_name))
            for c in codes.values() if c.co_filename.startswith({pkg!r})]
    with open(os.path.join({out!r}, "%d.json" % os.getpid()), "w") as out:
        json.dump({{"codes": hits, "knobs": sorted(knobs)}}, out)
sys.settrace(hook); threading.settrace(hook); atexit.register(dump)
"""

#: every registered scenario at seed 0, or only those named on the command line
SCENARIOS = ("import sys; from repro.workloads.scenarios import SCENARIOS as S; "
             "[S[n](0) for n in sys.argv[1:] or sorted(S)]")
PYTEST = [PY, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
#: tier-1, run from the temp dir so that Hypothesis keeps its database there
TESTS = PYTEST + ["--rootdir", str(ROOT), "-c", str(ROOT / "pyproject.toml"), str(ROOT / "tests")]


def surfaces(tmp: str) -> dict:
    """Product surface -> argv, in run order."""
    cli = [PY, "-m", "repro.cli"]
    trace = cli + ["trace", "PrintService", "CH-hcs::dlion:hcs:uw"]
    runs = {"scenarios": [PY, "-c", SCENARIOS]}
    runs.update((f"example {p.stem}", [PY, str(p)]) for p in sorted(ROOT.glob("examples/*.py")))
    return {**runs, "grids": cli + ["bench", "all", "--smoke", "--out-dir", tmp],
            "gate": [PY, "-m", "repro.harness.gate", "--fresh", tmp, "--baseline", str(ROOT)],
            "ledger": [PY, "benchmarks/e2e/run.py", "--seed", "7", "--scale", "0.05"],
            "cli import": cli + ["import", "DesiredService", "BIND-cs::fiji.cs.washington.edu"],
            "cli resolve": cli + ["resolve", "BIND-cs::fiji.cs.washington.edu", "HostAddress"],
            "cli table31": cli + ["table31"], "cli list": cli + ["list"], "cli trace": trace,
            "cli trace --json": trace + ["--json", f"{tmp}/spans.json"],
            "cli trace --perfetto": trace + ["--perfetto", f"{tmp}/trace.json"],
            "report": [PY, "-m", "repro.harness.report"],
            "check": [PY, "-m", "repro.analysis", "src/repro", "--scenarios"]}


def trace(argv: list, tmp: str, cwd: pathlib.Path = ROOT) -> dict:
    """Run ``argv`` under the hook: its exit code, code keys and knob values."""
    out = tempfile.mkdtemp(dir=tmp)
    pathlib.Path(out, "sitecustomize.py").write_text(HOOK.format(pkg=str(SRC / "repro"), out=out))
    path = os.pathsep.join([out, str(SRC), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(argv, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                          env=dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1"))
    dumps = [json.loads(dump.read_text()) for dump in pathlib.Path(out).glob("*.json")]
    return {"rc": done.returncode, "codes": {tuple(c) for hits in dumps for c in hits["codes"]},
            "knobs": {tuple(k) for hits in dumps for k in hits["knobs"]}}


def module_of(path: str) -> str:
    parts = pathlib.Path(path).relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def defined() -> tuple:
    """Every module with its line count; every function's code key with its module."""
    modules, functions = {}, {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        source, name = path.read_text(), module_of(str(path))
        modules[name], stack = len(source.splitlines()), [compile(source, str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
            if code.co_flags & 1 and not code.co_name.startswith("<"):  # CO_OPTIMIZED: a def
                qualname = getattr(code, "co_qualname", code.co_name)
                functions[(str(path), code.co_firstlineno, qualname)] = name
    return modules, functions


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tests", action="store_true", help="also trace tier-1")
    parser.add_argument("--check", action="store_true",
                        help="fail on an unimported module or a failed surface")
    args = parser.parse_args(argv)
    (modules, functions), product, knobs, exits = defined(), set(), set(), {}
    with tempfile.TemporaryDirectory() as tmp:
        print(f"{'surface':<32}{'exit':>5}{'modules':>8}{'functions':>10}")
        for name, command in surfaces(tmp).items():
            run = trace(command, tmp)
            product, knobs = product | run["codes"], knobs | run["knobs"]
            exits[name] = run["rc"]
            print(f"{name:<32}{run['rc']:>5}{len({module_of(c[0]) for c in run['codes']}):>8}"
                  f"{len(run['codes'] & functions.keys()):>10}")
        tests = trace(TESTS, tmp, pathlib.Path(tmp)) if args.tests else None
    imported, entered = {module_of(c[0]) for c in product}, product & functions.keys()
    unimported = sorted(set(modules) - imported)
    print(f"\nmodules no product surface imports: {len(unimported)} "
          f"({sum(modules[m] for m in unimported)} lines)")
    print("".join(f"  {m:<30}{modules[m]:>5}\n" for m in unimported))
    print(f"functions: {len(functions)} defined, {len(entered)} entered by product")
    if tests is not None:
        exits["tier-1"] = tests["rc"]
        only = sorted((tests["codes"] & functions.keys()) - entered)
        never = sorted(functions.keys() - entered - tests["codes"])
        print(f"  {len(only)} by tests only, {len(never)} by nothing; tier-1 exit {tests['rc']}")
        for label, keys in (("tests only", only), ("never", never)):
            print("".join(f"  {label:<11}{functions[k]}:{k[2]}  (line {k[1]})\n" for k in keys))
    print("knob values product surfaces constructed:")
    values = {(c, f): sorted(v for c2, f2, v in knobs if (c2, f2) == (c, f)) for c, f, _ in knobs}
    print("".join(f"  {c + '.' + f:<38}{', '.join(v)}\n" for (c, f), v in sorted(values.items())))
    found = [f"{m}: no product surface imports it" for m in unimported] + [
        f"{name} exited {rc}" for name, rc in exits.items() if rc]
    print("".join(f"reach: {problem}\n" for problem in found), end="", file=sys.stderr)
    return 1 if args.check and found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
