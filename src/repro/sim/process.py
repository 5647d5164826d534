"""Generator-based simulated processes.

A process is a Python generator that ``yield``\\ s :class:`Event` objects
to suspend until they trigger.  The value of a successful event is sent
back into the generator; the exception of a failed event is thrown into
it.  When the generator returns, the process (itself an event) succeeds
with the generator's return value, so processes compose: one process may
``yield`` another.

A process is one frame to start: ``env.process`` fills it and its start
event in place, the one place either is built.  Two things a process
need not cost.  Started with ``inline=True`` its first segment runs
inside the caller — the delivery that caused it — instead of at a start
event of its own.  And a process that returns
with nobody waiting on it is marked processed on the spot: no exit event
is scheduled, and whoever yields it later finds it processed and gets
its value.  (One that *raises* with nobody waiting is still scheduled,
so ``run()`` surfaces the exception.)

A wake-up is one Python call, :meth:`Process._resume`: the kernel's
callback steps the generator itself and parks the process on what it
yields next (``yield env.timeout(d)``, ``yield cpu.compute(ms)``).  When
an :class:`Interrupt` is delivered, the event the process was parked on
is told its waiter has left, so a charge holding a CPU for it lets go.
"""

from __future__ import annotations

import typing

from repro.sim.events import Event, Interrupt

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.obs.span import SpanLike

ProcessGenerator = typing.Generator[Event, object, object]


class Process(Event):
    """A running simulated activity; also an event others can wait on."""

    __slots__ = ("generator", "name", "_target", "_span")

    generator: ProcessGenerator
    name: str
    _target: typing.Optional[Event]  # parked on; the start event at first
    _span: typing.Optional["SpanLike"]  # innermost open span (repro.obs)

    def __init__(self, *_args: object, **_kwargs: object):
        raise TypeError("a Process is started by env.process(generator)")

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Used by failure injection (crash a server mid-call) and by
        timeout wrappers.  Interrupting a finished process is an error;
        one interrupted before its first segment fails with the
        :class:`Interrupt` without running its body.
        """
        if self.triggered:
            raise RuntimeError(f"cannot interrupt finished process {self.name!r}")
        # Detach from whatever the process was waiting on so the stale
        # resume callback never fires.
        abandoned = self._target
        self._target = None
        # Delivered by an event failing with the Interrupt; only then is
        # the abandoned event told (a charge keeps its unit until then).
        punch = Event(self.env)
        if abandoned is not None:
            if abandoned.callbacks is not None:
                try:
                    abandoned.callbacks.remove(self._resume)
                except ValueError:
                    pass
            punch.callbacks.append(abandoned._waiter_left)
        punch.callbacks.append(self._resume)
        punch.fail(Interrupt(cause))

    def _resume(self, event: typing.Optional[Event] = None) -> None:
        """Run segments until the generator parks on a pending event.

        This is the callback the kernel runs, and the only Python call a
        wake-up makes: ``event``'s value is sent into the generator, or
        its exception thrown.  ``None`` is an inline start.  An event
        yielded already processed feeds the next segment in this frame.
        """
        env = self.env
        # Saved, not cleared: an inline start nests this segment inside
        # the caller's, which is the active process again afterwards.
        enclosing = env._active_process
        while True:
            env._active_process = self
            try:
                if event is None:
                    target = self.generator.send(None)
                elif event._exception is None:
                    target = self.generator.send(event._value)
                else:
                    event._defused = True
                    target = self.generator.throw(event._exception)
            except StopIteration as stop:
                if self.callbacks:
                    self.succeed(stop.value)
                else:
                    # Nobody waits: processed in place, no exit event.
                    self._value = stop.value
                    self.callbacks = None
                return
            except BaseException as exc:
                self.fail(exc)
                return
            finally:
                env._active_process = enclosing
            if not isinstance(target, Event):
                # Surface inside the generator so user code sees a clear
                # error: the next segment's input is an event that failed.
                yielded, target = target, Event(env)
                target.callbacks = target._value = None
                target._exception = RuntimeError(
                    f"process {self.name!r} yielded {yielded!r}; "
                    "processes may only yield Event objects"
                )
            if target.callbacks is not None:
                self._target = target
                target.callbacks.append(self._resume)
                return
            # Already processed: its outcome is the next segment's input.
            event = target
