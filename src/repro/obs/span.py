"""Causal spans over the resolution pipeline.

A :class:`Span` is one timed step of a resolution — a ``FindNSM``, one
meta mapping, one replica leg — carrying a trace id shared by every
span of the same logical operation and a parent link that records *who
was waiting on it*.  The paper's "six sequential mappings" then stops
being prose: it is the blocking chain of a traced cold ``FindNSM``
(:mod:`repro.obs.critical_path`).

Determinism contract:

- **Off by default, ~zero when off.**  Every instrumentation site is
  written guarded::

      obs = env.obs
      with (obs.span("name", key=value) if obs.enabled else NULL_SPAN) as span:

  so with tracing off a site costs one attribute test and a no-op
  enter/exit on the shared :data:`NULL_SPAN`: no call into
  :meth:`Observability.span`, no kwargs dict, no attribute argument
  evaluated, no allocation (``tests/obs/test_span_budget.py`` pins the
  figure and fails on an unguarded site).  Called unguarded,
  ``span`` still answers :data:`NULL_SPAN` while tracing is off.
- **Digest-identical when on.**  Spans never emit trace records, never
  touch stats *counters* (they may feed histograms/timers, which are
  outside the determinism digest), never schedule events, and never
  charge CPU; trace ids come from a dedicated named RNG stream
  (``obs.ids``) so no other stream's draw sequence moves.  Enabling
  tracing therefore cannot change a run's trajectory, which
  ``python -m repro.analysis --scenarios`` verifies on every
  registered scenario.

Context propagation rides the generator call chain: ``with
env.obs.span(...)`` inside a process generator stays open across its
yields, and nested instrumentation finds it as the current span of the
active process.  Work handed to *another* process (hedged replica legs,
refresh-ahead renewals) must capture ``env.obs.current()`` at spawn
time and pass it as ``parent=`` explicitly — a new process starts with
no open span.

The open spans of a process are a chain hanging on the process itself:
its innermost open span, each span remembering the one it displaced.
Code that runs in no process (``call_later`` callbacks, ``main``) hangs
its chain on the :class:`Observability` instead.  Entering or leaving a
span is a pointer swap on its owner, wherever the ``with`` unwinds.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import SpanMetrics
    from repro.sim.kernel import Environment
    from repro.sim.process import Process

#: Attribute values instrumentation may attach to a span.
AttrValue = typing.Union[str, int, float, bool, None]

#: Whom a chain of open spans hangs on: the process that opened them,
#: or the collector itself for code that runs in no process.  Both keep
#: the innermost open span in ``_span``.
_Owner = typing.Union["Process", "Observability"]


class NullSpan:
    """The do-nothing span: what disabled or sampled-out sites get.

    The shared :data:`NULL_SPAN` instance absorbs ``set`` and context
    management without allocating or testing anything.
    """

    __slots__ = ()

    #: the span displaced on the owner's chain; only an owned no-op span
    #: (:class:`_OwnedNullSpan`) is ever on a chain and has one
    _prev: typing.Optional["SpanLike"]

    #: no-op spans never carry identity
    trace_id = 0
    span_id = 0
    parent_id: typing.Optional[int] = None
    name = ""
    recording = False

    def set(self, **attrs: AttrValue) -> None:
        """Discard ``attrs``."""

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        pass


class _OwnedNullSpan(NullSpan):
    """A sampled-out root: a no-op span that holds a place on its
    owner's chain of open spans, so that its descendants resolve to it —
    and therefore no-op too — instead of starting fresh traces."""

    __slots__ = ("_owner", "_prev")

    def __init__(self, owner: _Owner):
        self._owner = owner
        self._prev = None

    def __enter__(self) -> "NullSpan":
        owner = self._owner
        self._prev = owner._span
        owner._span = self
        return self

    def __exit__(self, *exc: object) -> None:
        _unhook(self._owner, self)


#: the shared ownerless no-op span
NULL_SPAN = NullSpan()

#: ``parent=`` default distinguishing "inherit the current span" from an
#: explicit ``parent=None`` (which forces a new root)
_INHERIT = NullSpan()

#: Either a real recording span or a no-op stand-in: what
#: :meth:`Observability.span` hands to instrumentation sites.
SpanLike = typing.Union["Span", NullSpan]


class Span:
    """One timed, attributed step of a trace.

    Use as a context manager; the span opens at ``__enter__`` and
    closes (recording its end time and any in-flight exception) at
    ``__exit__``.  Times are simulated milliseconds from ``env.now``.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start_ms",
        "end_ms",
        "attrs",
        "status",
        "error",
        "process",
        "_owner",
        "_prev",
    )

    #: real spans record; the shared NullSpan does not
    recording = True

    def __init__(
        self,
        owner: _Owner,
        trace_id: int,
        span_id: int,
        parent_id: typing.Optional[int],
        name: str,
        start_ms: float,
        process: str,
        attrs: typing.Dict[str, AttrValue],
    ):
        self._owner = owner
        self._prev: typing.Optional[SpanLike] = None
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_ms = start_ms
        self.end_ms: typing.Optional[float] = None
        self.process = process
        self.attrs = attrs
        self.status = "ok"
        self.error = ""

    # ------------------------------------------------------------------
    def set(self, **attrs: AttrValue) -> None:
        """Attach (or overwrite) typed attributes."""
        self.attrs.update(attrs)

    @property
    def duration_ms(self) -> float:
        """Span duration; 0.0 while still open."""
        if self.end_ms is None:
            return 0.0
        return self.end_ms - self.start_ms

    @property
    def finished(self) -> bool:
        return self.end_ms is not None

    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        owner = self._owner
        self._prev = owner._span
        owner._span = self
        return self

    def __exit__(
        self,
        exc_type: typing.Optional[type],
        exc: typing.Optional[BaseException],
        tb: object,
    ) -> None:
        owner = self._owner
        env = owner.env
        self.end_ms = env._now
        if exc is not None and self.status == "ok":
            self.status = "error"
            self.error = type(exc).__name__
        if owner._span is self:
            owner._span = self._prev
        else:
            _unhook(owner, self)
        obs = env.obs
        # Metrics first: the cap bounds what is retained, not what the
        # O(1) histograms count.
        metrics = obs.metrics
        if metrics is not None:
            metrics.observe(self)
        spans = obs.spans
        if len(spans) >= obs.max_spans:
            obs.dropped += 1
        else:
            spans.append(self)

    def __repr__(self) -> str:
        end = f"{self.end_ms:.3f}" if self.end_ms is not None else "open"
        return (
            f"Span({self.name!r}, trace={self.trace_id:x}, "
            f"id={self.span_id}, parent={self.parent_id}, "
            f"[{self.start_ms:.3f}..{end}], {self.status})"
        )


def _unhook(owner: _Owner, span: SpanLike) -> None:
    """Take ``span`` off ``owner``'s chain, with whatever opened above it.

    A span unwound out of order drops the spans still hanging above it;
    one already dropped that way is no longer on the chain and changes
    nothing.
    """
    node = owner._span
    while node is not None:
        if node is span:
            owner._span = span._prev
            return
        node = node._prev


class Observability:
    """Per-environment span collector: ``env.obs``.

    Off by default.  :meth:`enable` turns span collection on, with
    optional deterministic root sampling (``sample_every=n`` keeps every
    n-th root trace, counted in creation order) and an optional
    :class:`~repro.obs.metrics.SpanMetrics` pipeline that folds finished
    spans into the stats registry's histograms.
    """

    #: Test hook: when True, environments construct with tracing
    #: already enabled.  The scenario pass flips this to prove
    #: that a fully traced run replays the untraced digest exactly.
    default_enabled: typing.ClassVar[bool] = False

    def __init__(self, env: "Environment"):
        self.env = env
        self.enabled = bool(type(self).default_enabled)
        #: keep every ``sample_every``-th root trace (1 = keep all)
        self.sample_every = 1
        #: hard cap on retained finished spans (drops count below)
        self.max_spans = 100_000
        #: spans dropped once :attr:`max_spans` was reached
        self.dropped = 0
        #: finished spans, in completion order
        self.spans: typing.List[Span] = []
        #: optional metrics pipeline fed on every finished span
        self.metrics: typing.Optional["SpanMetrics"] = None
        #: innermost open span of code that runs in no process; a
        #: process keeps its own in :attr:`Process._span`
        self._span: typing.Optional[SpanLike] = None
        self._next_span_id = 1
        self._roots_seen = 0

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def enable(
        self,
        sample_every: int = 1,
        metrics: typing.Optional["SpanMetrics"] = None,
    ) -> None:
        """Turn span collection on (idempotent)."""
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.enabled = True
        self.sample_every = sample_every
        if metrics is not None:
            self.metrics = metrics

    def clear(self) -> None:
        """Drop all finished spans (open spans keep recording)."""
        self.spans = []
        self.dropped = 0

    # ------------------------------------------------------------------
    # Span creation
    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        /,
        parent: typing.Optional[SpanLike] = _INHERIT,
        **attrs: AttrValue,
    ) -> SpanLike:
        """Open a span (use as a context manager).

        ``name`` is positional-only so instrumentation can attach a
        ``name=...`` *attribute* (e.g. the HNS name being resolved).

        With no explicit ``parent``, the span nests under the current
        span of the active process; with none open it starts a new
        trace (a *root*), subject to sampling.  Pass ``parent=`` when
        the causal parent lives in another process — e.g. a hedged
        replica leg's parent is the exchange that launched it.
        """
        if not self.enabled:
            return NULL_SPAN
        env = self.env
        process = env._active_process
        owner: _Owner = self if process is None else process
        if parent is _INHERIT:
            parent = owner._span
        if parent is None:
            self._roots_seen += 1
            if (self._roots_seen - 1) % self.sample_every != 0:
                return _OwnedNullSpan(owner)
            trace_id = env.rng.stream("obs.ids").getrandbits(48)
            parent_id = None
        elif parent.recording:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        else:
            # Descendant of a sampled-out root: stay silent, and hold no
            # place on the chain (the root's own NullSpan already does).
            return NULL_SPAN
        span_id = self._next_span_id
        self._next_span_id = span_id + 1
        return Span(
            owner,
            trace_id,
            span_id,
            parent_id,
            name,
            env._now,
            "main" if process is None else process.name,
            attrs,
        )

    def current(self) -> typing.Optional[SpanLike]:
        """The innermost open span of the active process, if any."""
        process = self.env._active_process
        return self._span if process is None else process._span

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def traces(self) -> typing.Dict[int, typing.List[Span]]:
        """trace id -> finished spans, in completion order."""
        grouped: typing.Dict[int, typing.List[Span]] = {}
        for span in self.spans:
            grouped.setdefault(span.trace_id, []).append(span)
        return grouped

    def trace_spans(self, trace_id: int) -> typing.List[Span]:
        """The finished spans of one trace, in completion order."""
        return [s for s in self.spans if s.trace_id == trace_id]

    def roots(self) -> typing.List[Span]:
        """Finished root spans (no parent), in completion order."""
        return [s for s in self.spans if s.parent_id is None]

    def spans_named(self, name: str) -> typing.List[Span]:
        """Finished spans called ``name``, in completion order."""
        return [s for s in self.spans if s.name == name]
