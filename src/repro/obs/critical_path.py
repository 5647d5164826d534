"""Critical-path extraction: *where the time went* in one trace.

A trace is a tree of spans; the critical path is the blocking chain —
at every level, the child spans that the parent was actually waiting
on, walked backward from the parent's end.  For the paper's cold
``FindNSM`` the result is exactly the "six sequential mappings" figure
as a computed artifact; for the batched fast path (PR 3) or hedged
replica reads (PR 4) the optimisations show up as a literally shorter
path.

The walk is greedy and backward: starting from the parent's end time,
repeatedly take the child with the latest end not after the cursor,
then move the cursor to that child's start.  Children that overlap an
already-chosen child (a hedge loser, a background renewal) fall off
the path — which is the point.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.obs.span import Span

#: tolerance when comparing span boundaries (simulated ms)
_EPS = 1e-9


@dataclasses.dataclass(frozen=True)
class PathStep:
    """One span on the critical path.

    ``self_ms`` is the portion of the span's duration not covered by
    its own on-path children — the time this step itself contributed.
    ``depth`` is its nesting level on the path (root = 0).
    """

    span: Span
    self_ms: float
    depth: int


class CriticalPath:
    """The blocking chain of one completed trace."""

    def __init__(self, root: Span, steps: typing.List[PathStep]):
        self.root = root
        #: pre-order (chronological within each level) path steps
        self.steps = steps

    # ------------------------------------------------------------------
    @classmethod
    def from_trace(
        cls,
        spans: typing.Sequence[Span],
        root: typing.Optional[Span] = None,
    ) -> "CriticalPath":
        """Extract the critical path of ``spans`` (one trace's worth).

        ``root`` defaults to the earliest-starting parentless span; if
        every span has a parent (e.g. the true root was left out),
        the earliest-starting span stands in.
        """
        finished = [s for s in spans if s.end_ms is not None]
        if not finished:
            raise ValueError("no finished spans to analyse")
        if root is None:
            roots = [s for s in finished if s.parent_id is None]
            pool = roots or finished
            root = min(pool, key=lambda s: (s.start_ms, s.span_id))
        children: typing.Dict[int, typing.List[Span]] = {}
        for span in finished:
            if span.parent_id is not None:
                children.setdefault(span.parent_id, []).append(span)
        steps: typing.List[PathStep] = []
        cls._expand(root, children, 0, steps)
        return cls(root, steps)

    @classmethod
    def _expand(
        cls,
        span: Span,
        children: typing.Dict[int, typing.List[Span]],
        depth: int,
        out: typing.List[PathStep],
    ) -> None:
        chain = cls._blocking_children(span, children)
        span_end = span.end_ms if span.end_ms is not None else span.start_ms
        covered = 0.0
        for c in chain:
            c_end = c.end_ms if c.end_ms is not None else c.start_ms
            covered += min(c_end, span_end) - max(c.start_ms, span.start_ms)
        self_ms = max(0.0, span_end - span.start_ms - covered)
        out.append(PathStep(span=span, self_ms=self_ms, depth=depth))
        for child in chain:
            cls._expand(child, children, depth + 1, out)

    @staticmethod
    def _blocking_children(
        span: Span, children: typing.Dict[int, typing.List[Span]]
    ) -> typing.List[Span]:
        """The children ``span`` was waiting on, in chronological order."""
        assert span.end_ms is not None
        kids = children.get(span.span_id, [])
        chain: typing.List[Span] = []
        cursor = span.end_ms
        for child in sorted(
            kids,
            key=lambda c: (
                c.end_ms if c.end_ms is not None else c.start_ms,
                c.start_ms,
            ),
            reverse=True,
        ):
            assert child.end_ms is not None
            if child.end_ms <= span.start_ms + _EPS:
                continue  # finished before the parent even started
            if child.end_ms <= cursor + _EPS:
                chain.append(child)
                cursor = child.start_ms
        chain.reverse()
        return chain

    # ------------------------------------------------------------------
    @property
    def total_ms(self) -> float:
        """End-to-end duration of the traced operation."""
        return self.root.duration_ms

    def names(self) -> typing.List[str]:
        """Span names along the path, in path order."""
        return [step.span.name for step in self.steps]

    def contains_sequence(self, names: typing.Sequence[str]) -> bool:
        """Do ``names`` appear on the path, in order (gaps allowed)?"""
        want = list(names)
        for step in self.steps:
            if want and step.span.name == want[0]:
                want.pop(0)
        return not want

    def render(self) -> str:
        """A text report: one line per path step, indented by depth."""
        lines = [
            f"critical path: {self.total_ms:.1f} ms over "
            f"{len(self.steps)} spans (trace {self.root.trace_id:012x})"
        ]
        for step in self.steps:
            span = step.span
            detail = _describe_attrs(span)
            status = "" if span.status == "ok" else f" [{span.status}: {span.error}]"
            lines.append(
                f"{'  ' * step.depth}- {span.name}  "
                f"{span.duration_ms:8.1f} ms total, "
                f"{step.self_ms:8.1f} ms self"
                f"{'  ' + detail if detail else ''}{status}"
            )
        return "\n".join(lines)


def _describe_attrs(span: Span) -> str:
    """A compact ``key=value`` rendering of a span's attributes."""
    if not span.attrs:
        return ""
    parts = [f"{key}={span.attrs[key]}" for key in sorted(span.attrs)]
    return "(" + ", ".join(parts) + ")"
