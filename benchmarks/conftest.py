"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure from the paper's
evaluation, prints a paper-vs-measured comparison (run with ``-s`` to
see it inline; values also land in ``benchmark.extra_info``), and
asserts the reproduction tolerance recorded in EXPERIMENTS.md.
"""

import json
import os
import pathlib

import pytest

from repro.core import Arrangement, HNSName
from repro.harness.ablation import SCHEMA_VERSION
from repro.workloads import build_stack, build_testbed

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

FIJI = HNSName("BIND-cs", "fiji.cs.washington.edu")
DLION = HNSName("CH-hcs", "dlion:hcs:uw")

#: Table 3.1 of the paper (msec): arrangement -> (miss, HNS hit, both hit)
PAPER_TABLE_3_1 = {
    Arrangement.ALL_LOCAL: (460.0, 180.0, 104.0),
    Arrangement.AGENT: (517.0, 235.0, 137.0),
    Arrangement.REMOTE_HNS: (515.0, 232.0, 140.0),
    Arrangement.REMOTE_NSMS: (509.0, 225.0, 147.0),
    Arrangement.ALL_REMOTE: (547.0, 261.0, 181.0),
}

#: Table 3.2 of the paper (msec): records -> (miss, marshalled hit,
#: demarshalled hit)
PAPER_TABLE_3_2 = {1: (20.23, 11.11, 0.83), 6: (32.34, 26.17, 1.22)}


def run(env, gen):
    return env.run(until=env.process(gen))


def timed(env, gen):
    """Run a process; return elapsed simulated ms."""
    start = env.now
    run(env, gen)
    return env.now - start


def measure_table_3_1_row(arrangement, seed=3):
    """(miss, hns_hit, both_hit) simulated ms for one arrangement."""
    testbed = build_testbed(seed=seed)
    stack = build_stack(testbed, arrangement)
    env = testbed.env

    def one_import():
        return stack.importer.import_binding("DesiredService", FIJI)

    stack.flush_all_caches()
    a = timed(env, one_import())
    stack.flush_nsm_caches()
    b = timed(env, one_import())
    c = timed(env, one_import())
    return a, b, c


def _json_key(key):
    if isinstance(key, str):
        return key
    if isinstance(key, tuple):
        return "/".join(str(part) for part in key)
    return str(key)


def _jsonable(value):
    """Dicts with tuple keys -> string keys, recursively."""
    if isinstance(value, dict):
        return {_json_key(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def write_bench_results(bench_name, section, payload, wall_s=None, vs_baseline=None):
    """Merge ``payload`` under ``section`` in BENCH_<bench_name>.json.

    Machine-readable companion to the printed tables, written at the
    repo root so CI and later sessions can diff results without
    re-parsing pytest output.  Every file carries the schema-v2
    envelope (``schema_version``, ``smoke``, ``wall_s``,
    ``vs_baseline``, ``sections``) so the perf gate
    (:mod:`repro.harness.gate`) parses all of them uniformly; files
    written by older sessions are migrated in place on first merge.
    """
    path = REPO_ROOT / f"BENCH_{bench_name}.json"
    results = {}
    if path.exists():
        try:
            results = json.loads(path.read_text())
        except ValueError:
            results = {}
    if results.get("schema_version") != SCHEMA_VERSION:
        # Pre-envelope file: its top level was the sections dict.
        results = {"sections": results}
    results["schema_version"] = SCHEMA_VERSION
    results["bench"] = bench_name
    results["smoke"] = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    results.setdefault("wall_s", None)
    results.setdefault("vs_baseline", None)
    if wall_s is not None:
        results["wall_s"] = wall_s
    if vs_baseline is not None:
        results["vs_baseline"] = _jsonable(vs_baseline)
    results.setdefault("sections", {})[section] = _jsonable(payload)
    # Strict JSON: a NaN metric fails the bench instead of the artifact.
    path.write_text(
        json.dumps(results, indent=2, sort_keys=True, allow_nan=False) + "\n"
    )


@pytest.fixture
def fresh_testbed():
    return build_testbed(seed=17)
