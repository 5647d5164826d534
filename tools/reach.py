"""Reach census: which ``src/repro`` modules and functions the product runs,
and which settable values it never varies.

A product surface is any run that is not a test.  Each runs in a child whose
generated ``sitecustomize.py`` (first on ``PYTHONPATH``, so grandchildren
inherit it) sets a ``sys.settrace`` hook that notes every code object entered
and, on each fresh entry, the values of its defaulted parameters: those of a
``src/repro`` function, and the defaulted fields of a ``repro`` dataclass.
Nothing is written inside the repository.
``PYTHONPATH=src python tools/reach.py [--tests] [--check]``
"""

import argparse
import ast
import functools
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC, PY = ROOT / "src", sys.executable

#: the hook.  A parameter's values are reprs, at most CAP of them; an object
#: that is no plain value, tuple, enum or dataclass (a host, a transport) stops it.
HOOK = """import atexit, dataclasses, dis, enum, json, os, sys, threading
codes, watching, CAP, PLAIN = {{}}, {{}}, 8, (type(None), bool, int, float, str, tuple, enum.Enum)
DEFAULTED = {defaulted!r}
def watch(frame, code):
    label = (code.co_filename, code.co_firstlineno, getattr(code, "co_qualname", code.co_name))
    names = DEFAULTED.get(label[:2])
    if code.co_name == "__init__" and code.co_filename == "<string>":
        cls, M = type(frame.f_locals.get("self")), dataclasses.MISSING
        if cls.__module__.startswith("repro.") and dataclasses.is_dataclass(cls):
            label, names = (cls.__module__, 0, cls.__qualname__), [f.name for f in dataclasses.fields(cls)
                            if f.init and (f.default is not M or f.default_factory is not M)]
    if names:  # a generator's resumption is a "call" too: only the first RESUME is an entry
        start = next((i.offset for i in dis.get_instructions(code) if i.opname == "RESUME"), -1)
        return label, start, {{n: [] for n in names}}
def hook(frame, event, arg):
    code = frame.f_code
    if id(code) not in codes: codes[id(code)], watching[id(code)] = code, watch(frame, code)
    entry = watching[id(code)]
    if entry is None or frame.f_lasti != entry[1]: return
    local, params = frame.f_locals, entry[2]
    for name, seen in params.items():
        if seen is None or len(seen) > CAP: continue
        value = local.get(name)
        if any(value is v for v, _ in seen): continue
        if not (isinstance(value, PLAIN) or dataclasses.is_dataclass(value)): params[name] = None; continue
        text = repr(value)
        if all(text != r for _, r in seen): seen.append((value, text) if len(seen) < CAP else (None, "..."))
def dump():
    sys.settrace(None)
    hits = [(c.co_filename, c.co_firstlineno, getattr(c, "co_qualname", c.co_name))
            for c in codes.values() if c.co_filename.startswith({pkg!r})]
    params = [[*w[0], n, s and [r for _, r in s]] for w in watching.values() if w for n, s in w[2].items()]
    with open(os.path.join({out!r}, "%d.json" % os.getpid()), "w") as out:
        json.dump({{"codes": hits, "params": [p for p in params if p[-1] != []]}}, out)
sys.settrace(hook); threading.settrace(hook); atexit.register(dump)
"""
#: deployment settings the table leaves out: addresses, ports, names, credentials
DEPLOYMENT = re.compile(r"addr|port|name|secret|credential|endpoint")

#: every registered scenario at seed 0, or only those named on the command line
SCENARIOS = ("import sys; from repro.workloads.scenarios import SCENARIOS as S; "
             "[S[n](0) for n in sys.argv[1:] or sorted(S)]")
PYTEST = [PY, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
#: tier-1, run from the temp dir so that Hypothesis keeps its database there
TESTS = PYTEST + ["--rootdir", str(ROOT), "-c", str(ROOT / "pyproject.toml"), str(ROOT / "tests")]


def surfaces(tmp: str) -> dict:
    """Product surface -> argv, in run order."""
    cli, check = [PY, "-m", "repro.cli"], [PY, "-m", "repro.analysis", "src/repro"]
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
            "report": [PY, "-m", "repro.harness.report"], "lint": check,
            "check": check + ["--scenarios", "--format", "json"]}  # as CI runs it


def trace(argv: list, tmp: str, cwd: pathlib.Path = ROOT) -> dict:
    """Run ``argv`` under the hook: its exit code, code keys, and each
    watched parameter's value reprs (``None``: it held an object)."""
    out = tempfile.mkdtemp(dir=tmp)
    hook = HOOK.format(pkg=str(SRC / "repro"), out=out, defaulted=defaulted())
    pathlib.Path(out, "sitecustomize.py").write_text(hook)
    path = os.pathsep.join([out, str(SRC), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(argv, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                          env=dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1"))
    dumps = [json.loads(dump.read_text()) for dump in pathlib.Path(out).glob("*.json")]
    params: dict = {}
    for file, _line, qualname, name, reprs in (p for hits in dumps for p in hits["params"]):
        owner = module_of(file) if file.endswith(".py") else file
        params.setdefault(f"{owner}:{qualname}({name})", set()).update(reprs or ["<object>"])
    return {"rc": done.returncode, "codes": {tuple(c) for hits in dumps for c in hits["codes"]},
            "params": params}


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


@functools.lru_cache(maxsize=None)
def defaulted() -> dict:
    """(file, first line) -> the defaulted parameters of each ``src/repro`` def."""
    table = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a, line = node.args, min([node.lineno] + [d.lineno for d in node.decorator_list])
                positional = a.posonlyargs + a.args
                names = [p.arg for p in positional[len(positional) - len(a.defaults):]]
                names += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                table.update({(str(path), line): names} if names else {})
    return table


def single_valued(params: dict) -> dict:
    """Each parameter no product surface varies (deployment settings left
    out) -> its one value."""
    return {key: next(iter(values)) for key, values in sorted(params.items())
            if len(values) == 1 and values != {"<object>"}
            and not DEPLOYMENT.search(key[key.rindex("(") :])}


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tests", action="store_true", help="also trace tier-1")
    parser.add_argument("--check", action="store_true",
                        help="fail on an unimported module or a failed surface")
    args = parser.parse_args(argv)
    (modules, functions), product, params, exits = defined(), set(), {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        print(f"{'surface':<32}{'exit':>5}{'modules':>8}{'functions':>10}")
        for name, command in surfaces(tmp).items():
            run = trace(command, tmp)
            product, exits[name] = product | run["codes"], run["rc"]
            for key, values in run["params"].items():
                params.setdefault(key, set()).update(values)
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
    knobs = {k: v for k, v in params.items() if re.match(r"repro\.resolution:\w+Policy\(", k)}
    print("".join(f"  {k.split(':')[1].replace('(', '.')[:-1]:<38}{', '.join(sorted(v))}\n"
                  for k, v in sorted(knobs.items())))
    single = single_valued(params)
    print(f"settable values no product surface varies: {len(single)}")
    print("".join(f"  {key:<72}{value[:48]}\n" for key, value in single.items()))
    found = [f"{m}: no product surface imports it" for m in unimported] + [
        f"{name} exited {rc}" for name, rc in exits.items() if rc] + [
        "src/repro changed during the run"] * (defined() != (modules, functions))
    print("".join(f"reach: {problem}\n" for problem in found), end="", file=sys.stderr)
    return 1 if args.check and found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
