"""The interleaving sanitizer: a data-race detector for the sim kernel.

The kernel runs one process segment at a time, so nothing in this
repository is a *machine-level* data race — but two processes that
touch the same shared object between yields with no happens-before
ordering are still *logically* racing: the outcome depends on event
ordering, and an innocent change to an unrelated latency constant can
flip it.  That is exactly the class of bug that silently corrupts
benchmark trajectories.

The sanitizer attaches to an :class:`~repro.sim.kernel.Environment` as
its :class:`~repro.sim.kernel.KernelMonitor` and reconstructs the
happens-before relation from what the kernel already does:

- **program order**: consecutive segments of one process;
- **synchronization**: the segment that calls ``succeed``/``fail`` on
  an event happens-before the segment the event resumes (propagated
  through ``AnyOf``/``AllOf`` conditions and process-completion events);
- **causation without a heap entry**: a segment that starts a process
  inline happens-before that process's first segment (which nests
  inside it), an event triggered inline inherits the cause of the event
  whose callbacks are running, and a ``call_later`` callback continues
  the segment that scheduled it — so a request, its handler, the reply
  trip and the requester's resumption stay one ordered chain; what
  such a callback itself touches, in no process, is recorded in a
  segment of its event's own, after the one that caused the event;
- **passage of time is not synchronization**: a ``Timeout`` triggers
  itself, so waking up after a delay orders nothing — precisely the
  "sleep as a lock" anti-pattern the sanitizer exists to flag.

Shared objects are tracked either explicitly
(:meth:`InterleavingSanitizer.record_read` / ``record_write``) or by
wrapping them in a :meth:`watch` proxy that records attribute and item
accesses.  :meth:`report` then pairs up conflicting accesses (two
processes, at least one write) that have no happens-before path in
either direction.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.sim.events import Event
from repro.sim.kernel import Environment, KernelMonitor
from repro.sim.process import Process


@dataclasses.dataclass(frozen=True)
class SegmentInfo:
    """One yield-to-yield execution slice of one process."""

    seg_id: int
    process_name: str
    process_key: int
    index: int
    started_at: float

    def __str__(self) -> str:
        return f"{self.process_name}#{self.index}@{self.started_at:g}ms"


@dataclasses.dataclass(frozen=True)
class Access:
    """One recorded shared-object access."""

    label: str
    field: str
    kind: str  # "r" or "w"
    segment: SegmentInfo
    time: float


@dataclasses.dataclass(frozen=True)
class InterleavingHazard:
    """A conflicting access pair with no happens-before ordering."""

    label: str
    field: str
    first: Access
    second: Access

    def describe(self) -> str:
        return (
            f"{self.label}.{self.field}: "
            f"{self.first.kind} by {self.first.segment} and "
            f"{self.second.kind} by {self.second.segment} are unordered "
            "(no event synchronizes them; only the scheduler's tie-break "
            "keeps this stable)"
        )


class Watched:
    """Attribute/item proxy that reports accesses to the sanitizer.

    Reading an attribute or item records a read; assigning records a
    write.  Method objects fetched through the proxy count as reads of
    the method name; mutations a method performs internally are not
    seen unless they also go through a watched proxy.
    """

    __slots__ = ("_sanitizer", "_target", "_label")

    def __init__(
        self, sanitizer: "InterleavingSanitizer", target: object, label: str
    ):
        object.__setattr__(self, "_sanitizer", sanitizer)
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_label", label)

    def __getattr__(self, name: str) -> object:
        self._sanitizer.record_read(self._label, name)
        return getattr(self._target, name)

    def __setattr__(self, name: str, value: object) -> None:
        self._sanitizer.record_write(self._label, name)
        setattr(self._target, name, value)

    def __getitem__(self, key: object) -> object:
        self._sanitizer.record_read(self._label, f"[{key!r}]")
        return self._target[key]  # type: ignore[index]

    def __setitem__(self, key: object, value: object) -> None:
        self._sanitizer.record_write(self._label, f"[{key!r}]")
        self._target[key] = value  # type: ignore[index]

    def __contains__(self, key: object) -> bool:
        self._sanitizer.record_read(self._label, f"[{key!r}]")
        return key in self._target  # type: ignore[operator]

    def __len__(self) -> int:
        self._sanitizer.record_read(self._label, "__len__")
        return len(self._target)  # type: ignore[arg-type]


class InterleavingSanitizer(KernelMonitor):
    """Reconstructs happens-before and flags unordered conflicting pairs.

    Usage::

        env = Environment(seed=0)
        sanitizer = InterleavingSanitizer.attach(env)
        shared = sanitizer.watch(shared, "resolver-cache")
        ... run the simulation ...
        for hazard in sanitizer.report():
            print(hazard.describe())

    The sanitizer is passive: it never schedules or triggers events, so
    an instrumented run takes the same trajectory as a bare one.  It
    holds strong references to every event and process it has seen (to
    keep identity keys stable), so attach it to bounded diagnostic runs,
    not open-ended benchmarks.
    """

    def __init__(self, env: Environment):
        self.env = env
        self._segments: typing.List[SegmentInfo] = []
        #: the running segment; segments nest (an inline-started process
        #: runs its first segment inside its starter's), so the
        #: enclosing ones wait on a stack
        self._current: typing.Optional[int] = None
        self._enclosing: typing.List[typing.Optional[int]] = []
        #: forward happens-before edges (seg -> later segs)
        self._edges: typing.Dict[int, typing.List[int]] = {}
        #: per-process bookkeeping; values pin the Process object so the
        #: id() key cannot be reused
        self._last_segment: typing.Dict[int, typing.Tuple[Process, int]] = {}
        self._next_index: typing.Dict[int, int] = {}
        #: event id -> (event pinned, origin segment of its trigger)
        self._event_origin: typing.Dict[int, typing.Tuple[Event, int]] = {}
        #: process id -> origin segment of the event about to resume it
        self._pending_resume: typing.Dict[int, int] = {}
        #: origin of the event whose callbacks are running; events nest
        #: too (an inline trigger runs inside its cause's callbacks)
        self._processing_origin: typing.Optional[int] = None
        #: (outer origin, segment current when the event's callbacks began)
        self._outer_origins: typing.List[typing.Tuple[typing.Optional[int], ...]] = []
        self._accesses: typing.Dict[
            typing.Tuple[str, str], typing.List[Access]
        ] = {}
        self._reach_cache: typing.Dict[typing.Tuple[int, int], bool] = {}

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, env: Environment) -> "InterleavingSanitizer":
        """Create a sanitizer and install it as ``env.monitor``."""
        if env.monitor is not None:
            raise RuntimeError("environment already has a monitor attached")
        sanitizer = cls(env)
        env.monitor = sanitizer
        return sanitizer

    def detach(self) -> None:
        if self.env.monitor is self:
            self.env.monitor = None

    # ------------------------------------------------------------------
    # KernelMonitor hooks
    # ------------------------------------------------------------------
    def segment_begin(self, process: Process) -> None:
        key = id(process)
        index = self._next_index.get(key, 0)
        seg_id = len(self._segments)
        self._segments.append(
            SegmentInfo(
                seg_id=seg_id,
                process_name=process.name,
                process_key=key,
                index=index,
                started_at=self.env.now,
            )
        )
        previous = self._last_segment.get(key)
        if previous is not None:
            self._edges.setdefault(previous[1], []).append(seg_id)
        origin = self._pending_resume.pop(key, None)
        if origin is not None:
            self._edges.setdefault(origin, []).append(seg_id)
        # Whatever is running when a segment begins caused it: the
        # segment that started this process inline, or the origin of
        # the event being processed (usually ``origin`` again).
        cause = self._cause()
        if cause is not None and cause != origin:
            self._edges.setdefault(cause, []).append(seg_id)
        self._enclosing.append(self._current)
        self._current = seg_id

    def segment_end(self, process: Process) -> None:
        key = id(process)
        self._last_segment[key] = (process, self._current)
        self._next_index[key] = self._next_index.get(key, 0) + 1
        self._current = self._enclosing.pop()

    def _cause(self) -> typing.Optional[int]:
        """The segment responsible for what happens right now."""
        if self._current is not None:
            return self._current
        return self._processing_origin

    def event_triggered(self, event: Event) -> None:
        origin = self._cause()
        if origin is not None:
            self._event_origin[id(event)] = (event, origin)

    def note_resume(self, process: Process, event: Event) -> None:
        entry = self._event_origin.get(id(event))
        if entry is not None:
            self._pending_resume[id(process)] = entry[1]

    def event_processing(self, event: Event) -> None:
        entry = self._event_origin.get(id(event))
        self._outer_origins.append((self._processing_origin, self._current))
        self._processing_origin = entry[1] if entry is not None else None

    def event_processed(self, event: Event) -> None:
        self._processing_origin, self._current = self._outer_origins.pop()

    # ------------------------------------------------------------------
    # Shared-object tracking
    # ------------------------------------------------------------------
    def watch(self, target: object, label: str) -> Watched:
        """Wrap ``target`` so accesses through the proxy are recorded."""
        return Watched(self, target, label)

    def record_read(self, label: str, field: str) -> None:
        self._record(label, field, "r")

    def record_write(self, label: str, field: str) -> None:
        self._record(label, field, "w")

    def _record(self, label: str, field: str, kind: str) -> None:
        if self._current is None:
            if not self._outer_origins:
                # Setup / teardown code outside the run: ordered before
                # (after) every segment, so it can never race.
                return
            self._begin_callback_segment()
        segment = self._segments[self._current]
        self._accesses.setdefault((label, field), []).append(
            Access(
                label=label,
                field=field,
                kind=kind,
                segment=segment,
                time=self.env.now,
            )
        )

    def _begin_callback_segment(self) -> None:
        """A callback in no process touched shared state: the event
        being processed gets a segment of its own, after its origin
        (folded *into* the origin, the access would pass for that
        process's) and current until the event has been processed."""
        seg_id = self._current = len(self._segments)
        # keyed as a process of its own, by what no id() can be
        self._segments.append(
            SegmentInfo(seg_id, "callback", -1 - seg_id, 0, self.env.now)
        )
        if self._processing_origin is not None:
            self._edges.setdefault(self._processing_origin, []).append(seg_id)

    # ------------------------------------------------------------------
    # Happens-before and reporting
    # ------------------------------------------------------------------
    def happens_before(self, a: int, b: int) -> bool:
        """Is there a happens-before path from segment ``a`` to ``b``?"""
        if a == b:
            return True
        if a > b:
            return False  # edges only go forward in creation order
        cached = self._reach_cache.get((a, b))
        if cached is not None:
            return cached
        stack = [a]
        seen = {a}
        found = False
        while stack:
            node = stack.pop()
            for successor in self._edges.get(node, ()):
                if successor == b:
                    found = True
                    stack.clear()
                    break
                if successor < b and successor not in seen:
                    seen.add(successor)
                    stack.append(successor)
        self._reach_cache[(a, b)] = found
        return found

    def report(self) -> typing.List[InterleavingHazard]:
        """All unordered conflicting access pairs, deduplicated.

        A hazard is two accesses to the same ``(label, field)`` from
        different processes, at least one a write, with no happens-before
        path either way.  One hazard is reported per
        (label, field, process pair, kind pair).
        """
        hazards: typing.List[InterleavingHazard] = []
        seen: typing.Set[typing.Tuple[str, str, int, int, str, str]] = set()
        for (label, field), accesses in sorted(self._accesses.items()):
            for i, first in enumerate(accesses):
                for second in accesses[i + 1:]:
                    if first.segment.process_key == second.segment.process_key:
                        continue
                    if first.kind == "r" and second.kind == "r":
                        continue
                    a, b = first.segment.seg_id, second.segment.seg_id
                    if self.happens_before(a, b) or self.happens_before(b, a):
                        continue
                    dedupe = (
                        label,
                        field,
                        min(first.segment.process_key, second.segment.process_key),
                        max(first.segment.process_key, second.segment.process_key),
                        first.kind,
                        second.kind,
                    )
                    if dedupe in seen:
                        continue
                    seen.add(dedupe)
                    hazards.append(
                        InterleavingHazard(
                            label=label, field=field, first=first, second=second
                        )
                    )
        return hazards
