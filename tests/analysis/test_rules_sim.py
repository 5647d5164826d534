"""SIM001/SIM002/SIM003: one true positive and one clean pass each."""

import textwrap

from repro.analysis import lint_source
from repro.analysis.atomicity import Sim003StaleReadAcrossYield
from repro.analysis.rules_sim import Sim001AmbientNondeterminism, Sim002BlockingCall


def _lint(source, rule_cls):
    return lint_source(textwrap.dedent(source), rules=[rule_cls()])


# ----------------------------------------------------------------------
# SIM001: ambient nondeterminism
# ----------------------------------------------------------------------
def test_sim001_flags_time_time():
    findings = _lint(
        """
        import time

        def stamp():
            return time.time()
        """,
        Sim001AmbientNondeterminism,
    )
    assert [f.rule for f in findings] == ["SIM001"]
    assert "time.time()" in findings[0].message
    assert "env.now" in findings[0].message


def test_sim001_flags_from_import_and_alias():
    findings = _lint(
        """
        from time import monotonic
        import time as t
        from datetime import datetime

        def stamps():
            return monotonic(), t.time_ns(), datetime.now()
        """,
        Sim001AmbientNondeterminism,
    )
    assert [f.rule for f in findings] == ["SIM001"] * 3


def test_sim001_flags_ambient_randomness():
    findings = _lint(
        """
        import os
        import random
        import secrets
        import uuid

        def draw():
            return os.urandom(8), random.random(), secrets.token_hex(), uuid.uuid4()
        """,
        Sim001AmbientNondeterminism,
    )
    assert len(findings) == 4
    assert all(f.rule == "SIM001" for f in findings)


def test_sim001_flags_random_random_construction():
    findings = _lint(
        """
        import random

        def make_stream():
            return random.Random(42)
        """,
        Sim001AmbientNondeterminism,
    )
    assert [f.rule for f in findings] == ["SIM001"]
    assert "RngRegistry" in findings[0].message


def test_sim001_clean_simulated_time_and_rng():
    findings = _lint(
        """
        def sample(env):
            rng = env.rng.stream("latency.net")
            return env.now + rng.uniform(0.0, 1.0)
        """,
        Sim001AmbientNondeterminism,
    )
    assert findings == []


def test_sim001_unrelated_module_time_attribute_is_clean():
    # A *local* object that happens to have a .time() method is fine.
    findings = _lint(
        """
        def read(record):
            return record.time()
        """,
        Sim001AmbientNondeterminism,
    )
    assert findings == []


# ----------------------------------------------------------------------
# SIM002: blocking calls inside generator processes
# ----------------------------------------------------------------------
def test_sim002_flags_sleep_in_generator():
    findings = _lint(
        """
        import time

        def proc(env):
            time.sleep(1.0)
            yield env.timeout(5)
        """,
        Sim002BlockingCall,
    )
    assert [f.rule for f in findings] == ["SIM002"]
    assert "time.sleep()" in findings[0].message
    assert "'proc'" in findings[0].message


def test_sim002_flags_socket_and_open_in_generator():
    findings = _lint(
        """
        import socket

        def proc(env):
            conn = socket.create_connection(("host", 80))
            data = open("/etc/hosts").read()
            yield env.timeout(1)
            return conn, data
        """,
        Sim002BlockingCall,
    )
    assert sorted(f.rule for f in findings) == ["SIM002", "SIM002"]


def test_sim002_ignores_non_generator_functions():
    # time.sleep outside a process generator is SIM001-free and SIM002
    # only polices generators (harness code may legitimately sleep).
    findings = _lint(
        """
        import time

        def warmup():
            time.sleep(0.1)
        """,
        Sim002BlockingCall,
    )
    assert findings == []


def test_sim002_ignores_nested_non_generator_helper():
    # The nested def is not a generator; its body must not be attributed
    # to the enclosing generator.
    findings = _lint(
        """
        def proc(env):
            def helper():
                return input()
            yield env.timeout(1)
            return helper
        """,
        Sim002BlockingCall,
    )
    assert findings == []


def test_sim002_clean_simulated_waiting():
    findings = _lint(
        """
        def proc(env, transport):
            yield env.timeout(10)
            reply = yield from transport.request(b"ping")
            return reply
        """,
        Sim002BlockingCall,
    )
    assert findings == []


# ----------------------------------------------------------------------
# SIM003: stale reads across yields
# ----------------------------------------------------------------------
def test_sim003_flags_snapshot_used_after_yield():
    findings = _lint(
        """
        def resolve(self, env, key):
            entry = self.cache.probe(key)
            yield env.timeout(5)
            return entry.payload
        """,
        Sim003StaleReadAcrossYield,
    )
    assert [f.rule for f in findings] == ["SIM003"]
    assert "'entry'" in findings[0].message
    assert "self.cache.probe(...)" in findings[0].message


def test_sim003_flags_stateful_attribute_snapshot():
    findings = _lint(
        """
        def scan(self, env):
            table = self.zone.records
            yield env.timeout(1)
            return len(table)
        """,
        Sim003StaleReadAcrossYield,
    )
    assert [f.rule for f in findings] == ["SIM003"]


def test_sim003_clean_when_rebound_after_yield():
    findings = _lint(
        """
        def resolve(self, env, key):
            entry = self.cache.probe(key)
            yield env.timeout(5)
            entry = self.cache.probe(key)
            return entry.payload
        """,
        Sim003StaleReadAcrossYield,
    )
    assert findings == []


def test_sim003_clean_when_used_before_yield():
    findings = _lint(
        """
        def resolve(self, env, key):
            entry = self.cache.probe(key)
            payload = entry.payload
            yield env.timeout(5)
            return payload
        """,
        Sim003StaleReadAcrossYield,
    )
    assert findings == []


def test_sim003_tuple_unpack_taints_only_the_entry():
    # probe() returning (entry, age): only position 0 snapshots state.
    findings = _lint(
        """
        def resolve(self, env, key):
            entry, age = self.cache.probe(key)
            yield env.timeout(5)
            return age
        """,
        Sim003StaleReadAcrossYield,
    )
    assert findings == []


def test_sim003_yield_inside_branch_sequences_correctly():
    # The read at the top of the if-branch happens before the branch's
    # own yield; it must not be flagged.
    findings = _lint(
        """
        def resolve(self, env, key):
            entry = self.cache.probe(key)
            if entry is not None:
                payload = entry.payload
                yield env.timeout(5)
                return payload
            yield env.timeout(1)
        """,
        Sim003StaleReadAcrossYield,
    )
    assert findings == []


def test_sim003_reports_each_variable_once():
    findings = _lint(
        """
        def resolve(self, env, key):
            entry = self.cache.probe(key)
            yield env.timeout(5)
            first = entry.payload
            second = entry.payload
            return first, second
        """,
        Sim003StaleReadAcrossYield,
    )
    assert [f.rule for f in findings] == ["SIM003"]
