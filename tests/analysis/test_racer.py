"""The scenario pass: perturbation, race confirmation, the v3 report."""

import json
import textwrap

import pytest

from repro.analysis.__main__ import run
from repro.analysis.determinism import (
    CONFIRMED,
    PERTURB_RUNS,
    UNCONFIRMED,
    check_scenario,
    check_scenarios,
    run_digest,
    select_scenarios,
)
from repro.analysis.perturb import derive_seed, monitored, perturbed
from repro.analysis.sanitizer import InterleavingSanitizer
from repro.sim import Environment
from repro.workloads import scenarios as scenario_registry

#: A lease-renewal race SIM005 finds statically (subject: _leases).
RACY_SOURCE = """\
class LeaseTable:
    def _persist(self):
        yield self.env.timeout(1.0)

    def renew(self, name, extend_ms):
        expiry = self._leases[name]
        yield from self._persist()
        self._leases[name] = expiry + extend_ms
"""

#: The clean twin: re-read after the gap.
CLEAN_SOURCE = """\
class LeaseTable:
    def _persist(self):
        yield self.env.timeout(1.0)

    def renew(self, name, extend_ms):
        expiry = self._leases[name]
        self.stage(name, expiry)
        yield from self._persist()
        expiry = self._leases[name]
        self._leases[name] = expiry + extend_ms
"""


def planted_race_builder(seed):
    """Two unsynchronized processes touching a watched lease table.

    The watch label is the shared attribute's name — the convention the
    scenario pass uses to match hazards against static finding subjects.
    """
    env = Environment(seed=seed)
    env.trace.enabled = True
    table = {"printer": 100}
    if isinstance(env.monitor, InterleavingSanitizer):
        table = env.monitor.watch(table, "_leases")

    def renewer():
        yield env.timeout(5)
        table["printer"] = 200
        env.trace.emit("test", "renewed")

    def sweeper():
        yield env.timeout(5)
        _ = table["printer"]
        env.trace.emit("test", "swept")

    env.process(renewer(), name="renewer")
    env.process(sweeper(), name="sweeper")
    env.run()
    return env


def synchronized_builder(seed):
    """The same accesses, ordered through an event: no hazard."""
    env = Environment(seed=seed)
    env.trace.enabled = True
    table = {"printer": 100}
    if isinstance(env.monitor, InterleavingSanitizer):
        table = env.monitor.watch(table, "_leases")
    gate = env.event()

    def renewer():
        yield env.timeout(5)
        table["printer"] = 200
        gate.succeed(None)

    def sweeper():
        yield gate
        _ = table["printer"]

    env.process(renewer(), name="renewer")
    env.process(sweeper(), name="sweeper")
    env.run()
    return env


def cohort_builder(seed):
    """Eight processes sharing one timestamp: pure tie-break order."""
    env = Environment(seed=seed)
    env.trace.enabled = True

    def proc(tag):
        yield env.timeout(10)
        env.trace.emit("test", f"ran {tag}")

    for tag in "abcdefgh":
        env.process(proc(tag), name=tag)
    env.run()
    return env


def _write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return str(path)


def _check(tmp_path, monkeypatch, capsys, source, scenarios, *flags):
    """The one command on a fixture file, with only ``scenarios``
    registered; returns its exit status and stdout."""
    monkeypatch.setattr(scenario_registry, "SCENARIOS", scenarios)
    path = _write(tmp_path, "leases.py", source)
    code = run(
        [path, "--no-baseline", "--interprocedural", "--scenarios", *flags]
    )
    return code, capsys.readouterr().out


def _check_json(tmp_path, monkeypatch, capsys, source, scenarios, *flags):
    code, out = _check(
        tmp_path, monkeypatch, capsys, source, scenarios, "--format", "json",
        *flags,
    )
    return code, json.loads(out)


# ----------------------------------------------------------------------
# Perturbation mechanics
# ----------------------------------------------------------------------
def test_perturbation_disabled_is_digest_identical():
    plain = run_digest(cohort_builder(0))
    with perturbed(None):
        off = run_digest(cohort_builder(0))
    assert plain == off


def test_perturbation_shuffles_same_timestamp_cohort():
    plain = run_digest(cohort_builder(0))
    with perturbed(derive_seed(0, 0)):
        shuffled = run_digest(cohort_builder(0))
    assert plain != shuffled


def test_fixed_perturbation_seed_is_deterministic():
    seed = derive_seed(0, 1)
    with perturbed(seed):
        first = run_digest(cohort_builder(0))
    with perturbed(seed):
        second = run_digest(cohort_builder(0))
    assert first == second


def test_distinct_seeds_give_distinct_schedules():
    digests = set()
    for index in range(3):
        with perturbed(derive_seed(0, index)):
            digests.add(run_digest(cohort_builder(0)))
    assert len(digests) == 3


def test_sanitizer_attachment_is_digest_passive():
    plain = run_digest(planted_race_builder(0))
    with monitored(lambda env: InterleavingSanitizer(env)):
        watched = run_digest(planted_race_builder(0))
    assert plain == watched


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(0, 0) == derive_seed(0, 0)
    assert derive_seed(0, 0) != derive_seed(0, 1)
    assert derive_seed(0, 0) != derive_seed(1, 0)


# ----------------------------------------------------------------------
# One scenario's six runs
# ----------------------------------------------------------------------
def test_race_scenario_reports_hazard_and_ok():
    check, hazards = check_scenario("planted", planted_race_builder, seed=0)
    assert check.ok
    assert check.hazard_count == len(hazards) >= 1
    assert any(h.label == "_leases" for h in hazards)


def test_race_scenario_synchronized_is_hazard_free():
    check, hazards = check_scenario("sync", synchronized_builder, seed=0)
    assert check.ok
    assert hazards == []


def test_cohort_scenario_is_perturbation_effective():
    check, _ = check_scenario("cohort", cohort_builder, seed=0)
    assert check.ok
    assert check.perturbation_effective
    assert check.digest_traced == check.digest_plain


# ----------------------------------------------------------------------
# The one command: confirmation and gating
# ----------------------------------------------------------------------
def test_planted_race_is_confirmed(tmp_path, monkeypatch, capsys):
    scenarios = {"planted": planted_race_builder}
    code, payload = _check_json(
        tmp_path, monkeypatch, capsys, RACY_SOURCE, scenarios
    )
    assert code == 1  # findings gate the run, confirmed or not
    assert payload["ok"] is False
    assert len(payload["findings"]) == 1
    finding = payload["findings"][0]
    assert finding["rule"] == "SIM005"
    assert finding["status"] == CONFIRMED
    assert finding["witnesses"]
    assert "_leases" in finding["witnesses"][0]
    assert payload["scenarios"][0]["ok"]
    _, text = _check(tmp_path, monkeypatch, capsys, RACY_SOURCE, scenarios)
    assert "[CONFIRMED]" in text
    assert "witness:" in text


def test_clean_variant_has_zero_findings(tmp_path, monkeypatch, capsys):
    code, payload = _check_json(
        tmp_path, monkeypatch, capsys, CLEAN_SOURCE,
        {"planted": planted_race_builder},
    )
    assert code == 0
    assert payload["findings"] == []
    assert payload["ok"] is True


def test_static_finding_without_witness_is_unconfirmed(
    tmp_path, monkeypatch, capsys
):
    _, payload = _check_json(
        tmp_path, monkeypatch, capsys, RACY_SOURCE,
        {"sync": synchronized_builder},
    )
    assert len(payload["findings"]) == 1
    assert payload["findings"][0]["status"] == UNCONFIRMED
    assert payload["findings"][0]["witnesses"] == []


def test_run_racer_rejects_unknown_scenario():
    with pytest.raises(KeyError, match="known: planted"):
        select_scenarios(["nope"], {"planted": planted_race_builder})


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def test_racer_report_json_round_trip(tmp_path, monkeypatch, capsys):
    """The v3 report is strict JSON and byte-stable across two runs."""
    scenarios = {"planted": planted_race_builder, "cohort": cohort_builder}
    outputs = [
        _check(
            tmp_path, monkeypatch, capsys, RACY_SOURCE, scenarios,
            "--format", "json", "--seed", "3",
        )[1]
        for _ in range(2)
    ]
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0], parse_constant=_reject_constant)
    assert payload["version"] == 3
    assert payload["tool"] == "hnslint"
    assert [s["scenario"] for s in payload["scenarios"]] == ["cohort", "planted"]
    for scenario in payload["scenarios"]:
        assert scenario["seed"] == 3
        assert scenario["perturb_seeds"] == [
            derive_seed(3, i) for i in range(PERTURB_RUNS)
        ]
        assert len(scenario["digests_perturbed"]) == PERTURB_RUNS
    assert payload["hazards"] and all(
        h["scenario"] == "planted" for h in payload["hazards"]
    )


def test_racer_is_deterministic_across_runs():
    scenarios = {"planted": planted_race_builder}
    first = check_scenarios(scenarios, seed=7)
    second = check_scenarios(scenarios, seed=7)
    assert first == second
