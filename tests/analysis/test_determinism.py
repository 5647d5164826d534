"""The scenario pass: clean scenarios pass, planted regressions fail.

The deliberately-planted regressions live here (in test code, which
hnslint does not scan): a ``time.time()`` call inserted into the
``sim/latency.py`` source must trip SIM001, and an ambient-state leak
into ``ConstantLatency.sample`` at runtime must trip the replay digest
comparison.
"""

import itertools
import pathlib
import time

import pytest

from repro.analysis import check_scenario, lint_source
from repro.analysis.__main__ import run
from repro.analysis.determinism import (
    PERTURB_RUNS,
    check_scenarios,
    run_digest,
    run_lines,
    select_scenarios,
)
from repro.sim import Environment
from repro.sim.latency import ConstantLatency
from repro.workloads import scenarios as scenario_registry
from repro.workloads.scenarios import SCENARIOS, iter_scenarios

ROOT = pathlib.Path(__file__).resolve().parents[2]
LATENCY_PY = ROOT / "src" / "repro" / "sim" / "latency.py"


def test_scenario_registry_is_populated_and_sorted():
    names = [name for name, _ in iter_scenarios()]
    assert names == sorted(names)
    assert "fast_path_coalescing" in names
    assert "zipf_workload" in names
    assert len(names) >= 8


def test_every_registered_scenario_is_deterministic():
    """Replayed, traced and perturbed: every scenario."""
    result = check_scenarios(select_scenarios(), seed=0)
    failed = [c.scenario for c in result.checks if not c.ok]
    assert failed == []
    assert len(result.checks) == len(SCENARIOS)
    for check in result.checks:
        assert check.first_divergence == ""
        assert check.digest_traced == check.digest_plain
        assert len(check.digests_perturbed) == PERTURB_RUNS


def test_determinism_holds_across_seeds_but_seeds_differ():
    builder = SCENARIOS["zipf_workload"]
    check_a = check_scenario("zipf_workload", builder, seed=1)
    check_b = check_scenario("zipf_workload", builder, seed=2)
    assert check_a.ok and check_b.ok
    # different seeds take different trajectories (otherwise the digest
    # is insensitive and the whole check is vacuous)
    assert check_a.digest_plain != check_b.digest_plain


def test_run_lines_cover_trace_counters_and_clock():
    env = SCENARIOS["replica_scheduling"](0)
    lines = run_lines(env)
    assert lines[-1].startswith("clock|")
    assert any(line.startswith("counter|") for line in lines)
    assert len(lines) > len(env.trace.records)
    assert run_digest(env) == run_digest(env)


def test_check_all_rejects_unknown_scenarios():
    with pytest.raises(KeyError, match="no_such_scenario"):
        select_scenarios(["no_such_scenario"])


def test_unknown_scenario_is_a_usage_error(capsys):
    """An unknown --scenario exits 2 naming the known ones, no traceback."""
    with pytest.raises(SystemExit) as exit_info:
        run(["--scenarios", "--scenario", "nope"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "unknown scenario(s) nope" in err
    assert "known: " in err and "zipf_workload" in err


def _counting_builder(builds):
    def build(seed):
        builds.append(seed)
        env = Environment(seed=seed)
        env.trace.enabled = True

        def proc():
            yield env.timeout(1)
            env.trace.emit("test", "tick")

        env.process(proc(), name="ticker")
        env.run()
        return env

    return build


def test_scenarios_builds_each_scenario_six_times(tmp_path, monkeypatch):
    """plain, replay, traced, two perturbed, perturbed replay."""
    builds = []
    monkeypatch.setattr(
        scenario_registry, "SCENARIOS", {"counted": _counting_builder(builds)}
    )
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n", encoding="utf-8")
    assert run([str(clean), "--scenarios", "--seed", "4"]) == 0
    assert builds == [4] * 6


def test_traced_only_divergence_names_the_traced_pair():
    def traced_leak(seed):
        env = Environment(seed=seed)
        env.trace.enabled = True
        env.trace.emit("test", "built")
        if env.obs.enabled:  # observation that moves the trajectory
            env.trace.emit("test", "traced")
        env.run()
        return env

    check = check_scenario("traced_leak", traced_leak, seed=0)
    assert not check.ok
    assert check.digest_traced != check.digest_plain
    assert check.first_divergence.startswith("traced: line ")


# ----------------------------------------------------------------------
# Planted regressions
# ----------------------------------------------------------------------
def test_planting_time_time_in_latency_module_fails_lint():
    """Acceptance check: a wall-clock read in sim/latency.py trips SIM001."""
    source = LATENCY_PY.read_text(encoding="utf-8")
    assert lint_source(source, path=str(LATENCY_PY)) == []

    planted = source.replace(
        "return self.base_ms + self.per_byte_ms * size_bytes",
        "return self.base_ms + self.per_byte_ms * size_bytes + time.time()",
        1,
    ).replace("import random", "import random\nimport time", 1)
    assert planted != source  # the anchor lines still exist

    findings = lint_source(planted, path=str(LATENCY_PY))
    assert [f.rule for f in findings] == ["SIM001"]
    assert "time.time()" in findings[0].message


def test_runtime_clock_leak_is_caught_by_double_run(monkeypatch):
    """An ambient-state leak in ConstantLatency.sample diverges the digest."""
    ticks = itertools.count(1)
    original = ConstantLatency.sample

    def leaky_sample(self, rng, size_bytes=0):
        # The wall clock plus a cross-run counter: strictly increasing
        # between the plain run and its replay, so the leak is sure to
        # surface regardless of timer resolution.
        skew = (time.time_ns() % 1000) * 1e-9 + next(ticks) * 1e-3
        return original(self, rng, size_bytes) + skew

    monkeypatch.setattr(ConstantLatency, "sample", leaky_sample)
    check = check_scenario(
        "fast_path_coalescing", SCENARIOS["fast_path_coalescing"], seed=0
    )
    assert not check.ok
    assert check.first_divergence.startswith("replay: line ")


def test_clean_rerun_after_the_leak_passes_again():
    check = check_scenario(
        "fast_path_coalescing", SCENARIOS["fast_path_coalescing"], seed=0
    )
    assert check.ok
