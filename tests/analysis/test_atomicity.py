"""SIM003/SIM004: yield-gap fixture pairs from the write path's shapes.

Every true-positive fixture models a real PR 6 write-path pattern —
the ``_OpenBatch`` flush, the NOTIFY debounce, the lease sweeper — and
each has a clean twin spelling the race-free idiom, so the rules are
pinned from both sides.
"""

import textwrap

from repro.analysis import lint_source
from repro.analysis.atomicity import (
    Sim003StaleReadAcrossYield,
    Sim004CheckThenActAcrossGap,
)


def _lint(source, rule_cls):
    return lint_source(textwrap.dedent(source), rules=[rule_cls()])


# ----------------------------------------------------------------------
# SIM004: check-then-act across a may-yield gap
# ----------------------------------------------------------------------
def test_sim004_flags_open_batch_deref_after_helper_gap():
    # The _OpenBatch flush shape: None-check, suspend into a helper,
    # then dereference without re-checking.
    findings = _lint(
        """
        class BatchWriter:
            def _flush(self):
                yield self.env.timeout(self.linger_ms)

            def submit(self, op):
                if self._open is not None:
                    yield from self._flush()
                    self._open.ops.append(op)
        """,
        Sim004CheckThenActAcrossGap,
    )
    assert [f.rule for f in findings] == ["SIM004"]
    assert "self._open" in findings[0].message
    assert "None-checked" in findings[0].message


def test_sim004_flags_notify_pop_after_membership_gap():
    # The NOTIFY-debounce shape: membership test, suspend while the
    # notification is on the wire, then pop the tested key.
    findings = _lint(
        """
        class Notifier:
            def _send_notify(self, zone):
                yield self.env.timeout(self.debounce_ms)

            def notify(self, zone):
                if zone in self._pending:
                    yield from self._send_notify(zone)
                    self._pending.pop(zone)
        """,
        Sim004CheckThenActAcrossGap,
    )
    assert [f.rule for f in findings] == ["SIM004"]
    assert "membership test" in findings[0].message
    assert "_pending" in findings[0].message


def test_sim004_flags_transitive_helper_gap():
    # The gap is two calls deep: submit -> _flush -> _write; only the
    # call graph sees it.
    findings = _lint(
        """
        class Journal:
            def _write(self):
                yield self.env.timeout(2.0)

            def _flush(self):
                yield from self._write()

            def append(self, op):
                if self._segment is not None:
                    yield from self._flush()
                    return self._segment.tail
                yield from self._write()
        """,
        Sim004CheckThenActAcrossGap,
    )
    assert [f.rule for f in findings] == ["SIM004"]
    assert "_segment" in findings[0].message


def test_sim004_clean_when_rechecked_after_gap():
    findings = _lint(
        """
        class BatchWriter:
            def _flush(self):
                yield self.env.timeout(self.linger_ms)

            def submit(self, op):
                if self._open is not None:
                    yield from self._flush()
                    if self._open is not None:
                        self._open.ops.append(op)
        """,
        Sim004CheckThenActAcrossGap,
    )
    assert findings == []


def test_sim004_clean_when_act_precedes_gap():
    findings = _lint(
        """
        class Notifier:
            def _send_notify(self, zone):
                yield self.env.timeout(self.debounce_ms)

            def notify(self, zone):
                if zone in self._pending:
                    self._pending.pop(zone)
                    yield from self._send_notify(zone)
        """,
        Sim004CheckThenActAcrossGap,
    )
    assert findings == []


def test_sim004_clean_race_safe_pop_with_default():
    findings = _lint(
        """
        class Notifier:
            def _send_notify(self, zone):
                yield self.env.timeout(self.debounce_ms)

            def notify(self, zone):
                if zone in self._pending:
                    yield from self._send_notify(zone)
                    self._pending.pop(zone, None)
        """,
        Sim004CheckThenActAcrossGap,
    )
    assert findings == []


def test_sim004_clean_when_helper_cannot_suspend():
    # Interprocedural precision: the delegation resolves to a helper
    # with no yield anywhere, so the check never crosses a gap.
    findings = _lint(
        """
        class BatchWriter:
            def _keys(self):
                return list(self._open.ops)

            def submit(self, op):
                if self._open is not None:
                    yield from self._keys()
                    self._open.ops.append(op)
        """,
        Sim004CheckThenActAcrossGap,
    )
    assert findings == []


def test_sim004_clean_truthy_sweeper_guard():
    # The lease sweeper's correct idiom: a truthiness guard re-read
    # every loop iteration, popping under the guard.  Deliberately
    # untracked.
    findings = _lint(
        """
        class LeaseTable:
            def _sweep(self):
                while self._leases:
                    name, expiry = self._leases.popitem()
                    yield self.env.timeout(1.0)
                    self.expired.append(name)
        """,
        Sim004CheckThenActAcrossGap,
    )
    assert findings == []


def test_sim004_rebind_supersedes_stale_check():
    findings = _lint(
        """
        class BatchWriter:
            def _flush(self):
                yield self.env.timeout(self.linger_ms)

            def submit(self, op):
                if self._open is None:
                    yield from self._flush()
                    self._open = self.make_batch()
                    self._open.ops.append(op)
        """,
        Sim004CheckThenActAcrossGap,
    )
    assert findings == []


# ----------------------------------------------------------------------
# SIM003: private-state captures across a may-yield gap
# ----------------------------------------------------------------------
def test_sim003_flags_serial_captured_across_fsync():
    findings = _lint(
        """
        class Journal:
            def _fsync(self):
                yield self.env.timeout(self.fsync_ms)

            def append(self, delta):
                serial = self._serial
                yield from self._fsync()
                return serial + 1
        """,
        Sim003StaleReadAcrossYield,
    )
    assert [f.rule for f in findings] == ["SIM003"]
    assert "self._serial" in findings[0].message


def test_sim003_flags_lease_element_captured_across_gap():
    findings = _lint(
        """
        class LeaseTable:
            def _persist(self):
                yield self.env.timeout(1.0)

            def renew(self, name, extend_ms):
                expiry = self._leases[name]
                yield from self._persist()
                self._leases[name] = expiry + extend_ms
        """,
        Sim003StaleReadAcrossYield,
    )
    assert [f.rule for f in findings] == ["SIM003"]
    assert "self._leases[...]" in findings[0].message


def test_sim003_clean_when_reread_after_gap():
    findings = _lint(
        """
        class Journal:
            def _fsync(self):
                yield self.env.timeout(self.fsync_ms)

            def append(self, delta):
                serial = self._serial
                self.stage(serial, delta)
                yield from self._fsync()
                serial = self._serial
                return serial + 1
        """,
        Sim003StaleReadAcrossYield,
    )
    assert findings == []


def test_sim003_clean_when_use_is_in_the_suspending_statement():
    # The capture rides *into* the gap: arguments are evaluated before
    # the suspension, so this is race-free.
    findings = _lint(
        """
        class Journal:
            def _record(self, serial):
                yield self.env.timeout(1.0)

            def append(self, delta):
                serial = self._serial
                yield from self._record(serial)
                return True
        """,
        Sim003StaleReadAcrossYield,
    )
    assert findings == []


def test_sim003_clean_public_attribute_capture():
    # Public attributes are API surface, not the private mutable state
    # this rule patrols.
    findings = _lint(
        """
        class Journal:
            def _fsync(self):
                yield self.env.timeout(1.0)

            def append(self, delta):
                limit = self.capacity
                yield from self._fsync()
                return limit
        """,
        Sim003StaleReadAcrossYield,
    )
    assert findings == []


def test_sim003_clean_when_helper_cannot_suspend():
    findings = _lint(
        """
        class Journal:
            def _digest(self):
                return sum(self._entries_sizes)

            def append(self, delta):
                serial = self._serial
                yield from self.walker()
                return serial

            def walker(self):
                yield from self._digest()
        """,
        Sim003StaleReadAcrossYield,
    )
    # walker delegates to a non-generator helper, so append's
    # yield from walker() never suspends either.
    assert findings == []


def test_sim003_flags_stateful_capture_across_helper_gap():
    # `entries` is a stateful name on any receiver; the gap is a helper
    # that suspends.  The capture is reported once.
    findings = _lint(
        """
        class Cache:
            def _cost(self):
                yield self.env.timeout(1.0)

            def read(self, key):
                snapshot = self.entries
                yield from self._cost()
                return snapshot[key]
        """,
        Sim003StaleReadAcrossYield,
    )
    assert [f.rule for f in findings] == ["SIM003"]
    assert "self.entries" in findings[0].message
