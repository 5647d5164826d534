"""The scenario pass: perturbation, seeds, gating and the v5 report."""

import json
import textwrap

import pytest

from repro.analysis.__main__ import run
from repro.analysis.determinism import (
    PERTURB_RUNS,
    check_scenario,
    check_scenarios,
    run_digest,
    select_scenarios,
)
from repro.analysis.perturb import derive_seed, perturbed
from repro.net import DatagramTransport, Internetwork, Service
from repro.sim import ConstantLatency, Environment
from repro.sim.kernel import STANDING_MS
from repro.workloads import scenarios as scenario_registry

#: A lease-renewal race SIM003 finds statically.
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
        [path, "--scenarios", *flags]
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


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(0, 0) == derive_seed(0, 0)
    assert derive_seed(0, 0) != derive_seed(0, 1)
    assert derive_seed(0, 0) != derive_seed(1, 0)


def test_perturbed_queue_still_shuffles_wire_timeouts_landing_together():
    """The cohort the scenario pass permutes is the wire Timeouts; no
    start event is needed for two same-instant deliveries to swap."""

    def delivery_order(perturb_seed):
        env = Environment(seed=0, perturb_seed=perturb_seed)
        net = Internetwork(env)
        segment = net.add_segment(latency=ConstantLatency(2.0))
        hosts = [net.add_host(f"h{i}", segment) for i in range(4)]
        udp = DatagramTransport(net)
        order = []

        class Recorder(Service):
            def handle(self, datagram, responder):
                order.append(datagram.payload)
                return
                yield

        endpoint = hosts[3].bind(9000, Recorder())
        for index, host in enumerate(hosts[:3]):
            for copy in range(3):
                env.process(udp.send(host, endpoint, (index, copy), 32))
        env.run()
        assert env.now == 2.0
        return order

    fifo = delivery_order(None)
    assert fifo == sorted(fifo)
    shuffled = {tuple(delivery_order(seed)) for seed in range(6)}
    assert all(sorted(order) == fifo for order in shuffled)
    assert len(shuffled) > 1 and tuple(fifo) not in shuffled


def test_perturbed_queue_still_shuffles_standing_timers_armed_together():
    """Under a perturbation seed no timer waits in a FIFO lane: two
    leases armed at one instant with one delay are a cohort the
    scenario pass must be able to swap."""

    def expiry_order(perturb_seed):
        env = Environment(seed=0, perturb_seed=perturb_seed)
        order = []
        for lease in range(4):
            env.call_later(STANDING_MS, lambda _t, lease=lease: order.append(lease))
        assert bool(env._lanes) == (perturb_seed is None)
        env.run()
        assert env.now == STANDING_MS
        return tuple(order)

    assert expiry_order(None) == (0, 1, 2, 3)
    shuffled = {expiry_order(seed) for seed in range(6)}
    assert len(shuffled) > 1 and (0, 1, 2, 3) not in shuffled


# ----------------------------------------------------------------------
# One scenario's six runs
# ----------------------------------------------------------------------
def test_cohort_scenario_is_perturbation_effective():
    check = check_scenario("cohort", cohort_builder, seed=0)
    assert check.ok
    assert check.perturbation_effective
    assert check.digest_traced == check.digest_plain


# ----------------------------------------------------------------------
# The one command: gating and the report
# ----------------------------------------------------------------------
def test_clean_variant_has_zero_findings(tmp_path, monkeypatch, capsys):
    code, payload = _check_json(
        tmp_path, monkeypatch, capsys, CLEAN_SOURCE, {"cohort": cohort_builder},
    )
    assert code == 0
    assert payload["findings"] == []
    assert payload["ok"] is True


def test_run_racer_rejects_unknown_scenario():
    with pytest.raises(KeyError, match="known: cohort"):
        select_scenarios(["nope"], {"cohort": cohort_builder})


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def test_racer_report_json_round_trip(tmp_path, monkeypatch, capsys):
    """The v5 report is strict JSON and byte-stable across two runs."""
    scenarios = {"cohort": cohort_builder, "replayed": cohort_builder}
    outputs = [
        _check(
            tmp_path, monkeypatch, capsys, RACY_SOURCE, scenarios,
            "--format", "json", "--seed", "3",
        )[1]
        for _ in range(2)
    ]
    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0], parse_constant=_reject_constant)
    assert payload["version"] == 5
    assert payload["tool"] == "hnslint"
    assert payload["ok"] is False  # the SIM003 finding gates the run
    (finding,) = payload["findings"]
    assert finding["rule"] == "SIM003"
    assert sorted(finding) == ["col", "line", "message", "path", "rule", "snippet"]
    assert "hazards" not in payload
    assert [s["scenario"] for s in payload["scenarios"]] == ["cohort", "replayed"]
    for scenario in payload["scenarios"]:
        assert scenario["ok"]
        assert scenario["seed"] == 3
        assert scenario["perturb_seeds"] == [
            derive_seed(3, i) for i in range(PERTURB_RUNS)
        ]
        assert len(scenario["digests_perturbed"]) == PERTURB_RUNS


def test_racer_is_deterministic_across_runs():
    scenarios = {"cohort": cohort_builder}
    first = check_scenarios(scenarios, seed=7)
    second = check_scenarios(scenarios, seed=7)
    assert first == second
