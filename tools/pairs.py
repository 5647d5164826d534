"""Alternated parent/change pairs on one ledger workload.

Answers "did this change make an end-to-end metric better or worse, by
how much, against which parent":

    python tools/pairs.py --against <rev> --workload <w> --pairs N \
        [--seconds S] [--first-seed F] [--row]

The parent, ``<rev>``, is checked out with ``git worktree add --detach``
into a temporary directory, removed afterwards.  The change is the tree
this script lives in, as it stands (its tracked files and the untracked
ones git does not ignore), copied beside the parent: where a tree sits
moves ``peak_rss_mb`` by itself.  Pair *i* runs

    benchmarks/e2e/run.py --workload <w> --seed F+i --seconds S --trace 0

on both trees, one after the other: the parent first on even *i*, the
change first on odd ones.  S defaults to the workload's entry in
``SECONDS``, so two claims on one workload answer the same question.  ``--first-seed`` (F, default 7) lets a
claim's pairs run on seeds the change was not written against.  Each run is a child process with no
``PYTHONPATH``, so each tree imports its own ``src/``, and each compiles
it from source: ``PYTHONDONTWRITEBYTECODE=1`` and a ``PYTHONPYCACHEPREFIX``
at one empty temporary directory, so no bytecode can bias ``setup_s``
or ``peak_rss_mb``.

Prints JSON: for every end-to-end metric in ``BENCHMARK.json``, each
side's median and quartiles, the Δ of each pair (change − parent), the
change's wins (pairs where it is strictly better), and whether the
medians are further apart than the parent's interquartile range.
``--row`` prints the EXPERIMENTS.md row of ``wall_us_per_op`` instead.
Exits 1 when a run fails, loses an op or fails its output check.
Quartiles interpolate linearly between order statistics.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import typing

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIRST_SEED = 7
ROW_METRIC = "wall_us_per_op"

#: ``--seconds`` per workload when it is not given: the shortest of 2, 4,
#: 8, 12, 16 and 24 at which a parent-vs-parent run (10 pairs, seeds
#: 301-310, a 2-vCPU host) kept the parent's ``wall_us_per_op``
#: interquartile range within 3 % of its median.  ``warm_zipf`` and
#: ``traced_import`` never got there (3.25 % and 3.35 % at best), so
#: theirs is the shortest within 0.1 points of their lowest reading.
#: The readings are in EXPERIMENTS.md.  ``mclient_zipf`` read within 3 %
#: at 2 s, yet at 2 s four runs of one change resolved its 6 % effect
#: once; at 12 s, two runs of two resolved it, 10/10 pairs each.
SECONDS = {
    "cold_import": 16.0,
    "traced_import": 12.0,
    "warm_zipf": 8.0,
    "update_storm": 12.0,
    "adhoc_churn": 8.0,
    "mclient_zipf": 12.0,
}


def quartiles(values: typing.Sequence[float]) -> typing.Tuple[float, float, float]:
    """(q1, median, q3) of ``values``, linearly interpolated."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values")

    def at(fraction: float) -> float:
        position = fraction * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        return ordered[low] + (ordered[high] - ordered[low]) * (position - low)

    return at(0.25), at(0.5), at(0.75)


def compare(
    parent: typing.Sequence[float], change: typing.Sequence[float], better: str
) -> typing.Dict[str, object]:
    """One metric over ``len(parent)`` pairs; ``better`` is "lower" or
    "higher"."""
    if len(parent) != len(change):
        raise ValueError("pairs need one run per side")
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    sign = 1 if better == "higher" else -1
    deltas = [c - p for p, c in zip(parent, change)]
    return {
        "better": better,
        "parent": {"median": p_median, "q1": p_q1, "q3": p_q3},
        "change": {"median": c_median, "q1": c_q1, "q3": c_q3},
        "deltas": deltas,
        "median_delta_pct": 100.0 * (c_median - p_median) / p_median if p_median else None,
        "wins": sum(sign * delta > 0 for delta in deltas),
        "n": len(deltas),
        "parent_iqr": p_q3 - p_q1,
        "beyond_parent_iqr": abs(c_median - p_median) > p_q3 - p_q1,
    }


def schedule(
    pairs: int, first_seed: int = FIRST_SEED
) -> typing.List[typing.Tuple[int, typing.Tuple[str, str]]]:
    """(seed, run order) of each pair: pair *i* runs seed
    ``first_seed + i``, the parent first on even pairs."""
    return [
        (first_seed + i, ("parent", "change") if i % 2 == 0 else ("change", "parent"))
        for i in range(pairs)
    ]


def seconds_for(workload: str, given: typing.Optional[float] = None) -> float:
    """The ``--seconds`` a run of ``workload`` uses: ``given``, else the
    table's."""
    if given is not None:
        return given
    if workload not in SECONDS:
        raise KeyError(f"no default --seconds for workload {workload!r}")
    return SECONDS[workload]


def _fmt(value: float) -> str:
    return f"{value:.1f}" if abs(value) >= 100 else f"{value:.2f}"


def _pct(value: float) -> str:
    return f"{value:+.1f}".replace("-", "−")


def row(workload: str, seeds: typing.Sequence[int], metric: typing.Dict) -> str:
    """The EXPERIMENTS.md row: | workload | seeds | parent | change |
    Δ median | parent q3 − q1 | change wins |."""
    p, c = metric["parent"], metric["change"]
    pcts = [100.0 * d / p["median"] for d in metric["deltas"]]
    return (
        f"| `{workload}` | {seeds[0]}–{seeds[-1]} "
        f"| {_fmt(p['median'])} ({_fmt(p['q1'])}–{_fmt(p['q3'])}) "
        f"| {_fmt(c['median'])} ({_fmt(c['q1'])}–{_fmt(c['q3'])}) "
        f"| {_pct(metric['median_delta_pct'])} % | {_fmt(metric['parent_iqr'])} "
        f"| {metric['wins']}/{metric['n']} ({_pct(min(pcts))} … {_pct(max(pcts))} %) |"
    )


def child_env(pycache: pathlib.Path) -> typing.Dict[str, str]:
    """A run's environment, the same for both trees: no ``PYTHONPATH``,
    no bytecode read from a tree or written anywhere (``pycache`` is
    empty and stays so)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    return env


def run_once(
    tree: pathlib.Path, workload: str, seed: int, seconds: float, pycache: pathlib.Path
) -> dict:
    """One ledger run on ``tree``, from source: its last stdout line, parsed."""
    env = child_env(pycache)
    argv = [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        sys.stderr.write(done.stderr)
        return {"rc": done.returncode or 1, "failed": None, "correct": False, "metrics": {}}
    result["rc"] = done.returncode
    return result


def copy_change(into: pathlib.Path) -> None:
    """The working tree as it stands, copied to ``into``: the files git
    tracks and the untracked ones it does not ignore."""
    listed = subprocess.run(
        ["git", "-C", str(ROOT), "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        check=True, capture_output=True, text=True,
    ).stdout
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if source.is_file():  # a tracked file deleted in the tree is not there
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="the parent revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="per run (default: the workload's entry in SECONDS)")
    parser.add_argument("--first-seed", type=int, default=FIRST_SEED,
                        help="pair i runs seed FIRST_SEED + i")
    parser.add_argument("--row", action="store_true", help="print the EXPERIMENTS.md row")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        seconds = seconds_for(args.workload, args.seconds)
    except KeyError as err:
        parser.error(str(err))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    plan = schedule(args.pairs, args.first_seed)
    runs: typing.Dict[str, typing.List[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as scratch:
        trees = {side: pathlib.Path(scratch) / side for side in ("parent", "change")}
        pycache = pathlib.Path(scratch) / "pycache"
        pycache.mkdir()
        copy_change(trees["change"])
        parent = trees["parent"]
        git = ["git", "-C", str(ROOT), "worktree"]
        subprocess.run(git + ["add", "--detach", "--quiet", str(parent), args.against], check=True)
        try:
            for seed, order in plan:
                for side in order:
                    runs[side].append(
                        run_once(trees[side], args.workload, seed, seconds, pycache))
        finally:
            subprocess.run(git + ["remove", "--force", str(parent)], check=True)
    ok = all(r["rc"] == 0 and r["correct"] and r["failed"] == 0
             for side in runs.values() for r in side)
    metrics = {}
    if ok:
        for m in declared:
            metrics[m["name"]] = dict(
                compare([r["metrics"][m["name"]]["value"] for r in runs["parent"]],
                        [r["metrics"][m["name"]]["value"] for r in runs["change"]],
                        m["better"]),
                unit=m["unit"])
    seeds = [seed for seed, _ in plan]
    if args.row and ok:
        print(row(args.workload, seeds, metrics[ROW_METRIC]))
    else:
        print(json.dumps({
            "workload": args.workload, "against": args.against, "seeds": seeds,
            "seconds": seconds, "ok": ok,
            "failed_ops": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
            "metrics": metrics,
        }, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
