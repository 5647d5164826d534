"""Structured event tracing.

The Figure 2.1 reproduction and several tests rely on being able to
replay *what happened* in a run: which component called which, when, and
with what payload.  The tracer records ``TraceRecord`` tuples; consumers
filter by category.
"""

from __future__ import annotations

import dataclasses
import hashlib
import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment


@dataclasses.dataclass(frozen=True)
class TraceRecord:
    """One traced occurrence."""

    time: float
    category: str
    message: str
    data: typing.Mapping[str, object]

    def __str__(self) -> str:
        return f"[{self.time:10.3f} ms] {self.category:<12} {self.message}"


class Tracer:
    """Collects :class:`TraceRecord` objects when enabled.

    Tracing is off by default so benchmark runs pay no collection cost;
    tests and the walkthrough example enable it.
    """

    def __init__(self, env: "Environment"):
        self._env = env
        self.enabled = False
        self.records: typing.List[TraceRecord] = []

    def emit(self, category: str, message: str, **data: object) -> None:
        """Record one occurrence (no-op unless enabled).

        The arguments are built before the call either way, so a caller
        that runs once per operation tests ``trace.enabled`` itself and
        formats nothing while the tracer is off.
        """
        if not self.enabled:
            return
        self.records.append(
            TraceRecord(self._env.now, category, message, dict(data))
        )

    # ------------------------------------------------------------------
    # Canonical serialization (determinism checking)
    # ------------------------------------------------------------------
    def canonical_lines(self) -> typing.List[str]:
        """One canonical string per record, in recorded order.

        Data mappings are rendered with sorted keys so the serialization
        depends only on what was traced, never on dict insertion order.
        Two same-seed runs of a deterministic simulation produce
        identical canonical lines; the scenario pass
        (:mod:`repro.analysis.determinism`) diffs them.
        """
        lines = []
        for record in self.records:
            data = ",".join(
                f"{key}={record.data[key]!r}" for key in sorted(record.data)
            )
            lines.append(
                f"{record.time!r}|{record.category}|{record.message}|{data}"
            )
        return lines

    def digest(self) -> str:
        """SHA-256 over the canonical serialization of the trace."""
        hasher = hashlib.sha256()
        for line in self.canonical_lines():
            hasher.update(line.encode("utf-8"))
            hasher.update(b"\n")
        return hasher.hexdigest()
