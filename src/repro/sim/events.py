"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence at a point in simulated time.
Processes ``yield`` events to suspend until they trigger.  Events carry a
value (delivered to the waiting process) or an exception (raised inside
the waiting process), mirroring the success/failure duality of remote
calls in the systems built on top of the kernel.

Every event class is ``__slots__``-backed: events are the single most
allocated object in a run (one per timeout, one per process, one per
trigger), and dict-backed attributes were a measurable share of the
kernel hot loop.  Subclasses outside this package may still add
attributes freely — a subclass without ``__slots__`` gets a ``__dict__``
as usual.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Environment


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries the value supplied by the interrupter
    (for example, a description of an injected failure).
    """

    def __init__(self, cause: object = None):
        super().__init__(cause)
        self.cause = cause


# Sentinel distinguishing "no value yet" from "value is None".
_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait on.

    Lifecycle::

        e = Event(env)       # untriggered
        e.succeed(value)     # or e.fail(exc); schedules callbacks at `now`
        # -> triggered, then processed once callbacks have run

    Events may only be triggered once; a second trigger raises
    ``RuntimeError``.

    :meth:`succeed_now` / :meth:`fail_now` trigger *and* process in one
    step, with no heap entry: the callbacks run before the call returns.
    That is legitimate only when the cause is the event the kernel is
    processing right now (a reply ``Timeout`` coming due, a condition's
    deciding child) — then the waiter resumes at the same simulated
    instant it would have, only without a second trip through the
    queue — or when nobody is listening, so nothing runs (a process
    returning unwaited).  Otherwise code inside a process segment uses
    ``succeed``.
    """

    __slots__ = ("env", "callbacks", "_value", "_exception", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: typing.Optional[
            typing.List[typing.Callable[["Event"], None]]
        ] = []
        self._value: object = _PENDING
        self._exception: typing.Optional[BaseException] = None
        self._defused = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled for processing."""
        return self._value is not _PENDING or self._exception is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event is in the past)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event triggered successfully (no exception)."""
        if not self.triggered:
            raise RuntimeError("event has not been triggered")
        return self._exception is None

    @property
    def value(self) -> object:
        """The value the event carried, or raises its exception."""
        if self._exception is not None:
            raise self._exception
        if self._value is _PENDING:
            raise RuntimeError("event has not been triggered")
        return self._value

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING or self._exception is not None:
            raise RuntimeError("event already triggered")
        self._value = value
        env = self.env
        eid = env._eid
        env._eid = eid + 1
        env._push((env.now, eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        If no process ever waits on a failed event, the kernel surfaces
        the exception at ``run()`` time so failures never pass silently.
        """
        if self._value is not _PENDING or self._exception is not None:
            raise RuntimeError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exception = exception
        self._value = None
        env = self.env
        eid = env._eid
        env._eid = eid + 1
        env._push((env.now, eid, self))
        return self

    def succeed_now(self, value: object = None) -> "Event":
        """Trigger with ``value`` and run the callbacks before returning."""
        if self._value is not _PENDING or self._exception is not None:
            raise RuntimeError("event already triggered")
        self._value = value
        self._process_now()
        return self

    def fail_now(self, exception: BaseException) -> "Event":
        """Trigger with ``exception`` and run the callbacks before returning.

        With nobody listening yet the failure is scheduled like
        :meth:`fail`'s, so a late waiter can still catch it and
        ``run()`` surfaces it otherwise.
        """
        if not self.callbacks and not self._defused:
            return self.fail(exception)
        if self._value is not _PENDING or self._exception is not None:
            raise RuntimeError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail_now() requires an exception instance")
        self._exception = exception
        self._value = None
        self._process_now()
        return self

    def _process_now(self) -> None:
        """Process a just-triggered event on the spot (no heap entry)."""
        callbacks = self.callbacks or ()
        self.callbacks = None
        for callback in callbacks:
            callback(self)

    def defuse(self) -> None:
        """Mark a failed event as handled (suppresses kernel surfacing)."""
        self._defused = True

    def _waiter_left(self, _interrupt: "Event") -> None:
        """The process parked on this event is taking ``_interrupt``
        instead and will never be resumed by it.  Nothing to undo here;
        an event that holds something for its waiter (a charge on a
        :class:`~repro.sim.resources.Resource`) gives it back."""

    def _add_callback(self, callback: typing.Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run immediately at the current time.
            callback(self)
        else:
            self.callbacks.append(callback)

    def _process(self) -> None:
        """Run callbacks; called by the kernel when the event comes due."""
        callbacks = self.callbacks
        self.callbacks = None
        if callbacks:
            for callback in callbacks:
                callback(self)
        elif self._exception is not None and not self._defused:
            # Nobody was listening; re-raise so the failure is visible.
            raise self._exception


class Timeout(Event):
    """An event that triggers ``delay`` milliseconds in the future.

    The hottest allocation in the kernel, so it has no constructor
    frame: :meth:`Environment.timeout` fills its slots in place and
    schedules it.  Its value is fixed from then on, so it reads as
    triggered and a ``succeed`` or ``fail`` raises ``RuntimeError``.
    """

    __slots__ = ("delay",)

    delay: float

    def __init__(self, *_args: object, **_kwargs: object):
        raise TypeError("a Timeout is built by env.timeout(delay, value)")


class _ConditionBase(Event):
    """Shared machinery for :class:`AnyOf` / :class:`AllOf`.

    A condition is never a heap entry: it fires inside the callback of
    the child that decides it (:meth:`Event.succeed_now`), so whoever
    waits on it resumes while that child is being processed.  Built
    over children that already decide it, it is processed on
    construction.
    """

    __slots__ = ("events", "_done")

    def __init__(self, env: "Environment", events: typing.Sequence[Event]):
        super().__init__(env)
        self.events = list(events)
        if not self.events:
            self.succeed_now({})
            return
        self._done = 0
        for event in self.events:
            if event.callbacks is None:
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)

    def _collect(self) -> typing.Dict[Event, object]:
        results: typing.Dict[Event, object] = {}
        for event in self.events:
            if event.triggered and event._exception is None and event.processed:
                results[event] = event._value
        return results

    def _on_child(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AnyOf(_ConditionBase):
    """Triggers as soon as any child event triggers.

    Carries a dict mapping each already-processed successful child to its
    value.  A failing child fails the condition.
    """

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            if event._exception is not None:
                event.defuse()
            return
        if event._exception is not None:
            event.defuse()
            self.fail_now(event._exception)
        else:
            self.succeed_now(self._collect() or {event: event._value})


class AllOf(_ConditionBase):
    """Triggers once every child event has triggered.

    Carries a dict mapping every child to its value.  The first failing
    child fails the condition.
    """

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            if event._exception is not None:
                event.defuse()
            return
        if event._exception is not None:
            event.defuse()
            self.fail_now(event._exception)
            return
        self._done += 1
        if self._done == len(self.events):
            self.succeed_now({e: e._value for e in self.events})
