"""Generator-based simulated processes.

A process is a Python generator that ``yield``\\ s :class:`Event` objects
to suspend until they trigger.  The value of a successful event is sent
back into the generator; the exception of a failed event is thrown into
it.  When the generator returns, the process (itself an event) succeeds
with the generator's return value, so processes compose: one process may
``yield`` another.

Two things a process need not cost.  Started with ``inline=True`` its
first segment runs inside the caller — the delivery that caused it —
instead of at a start event of its own.  And a process that returns
with nobody waiting on it is marked processed on the spot: no exit event
is scheduled, and whoever yields it later finds it processed and gets
its value.  (One that *raises* with nobody waiting is still scheduled,
so ``run()`` surfaces the exception.)
"""

from __future__ import annotations

import typing

from repro.sim.events import Event, Interrupt

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.obs.span import SpanLike
    from repro.sim.kernel import Environment

ProcessGenerator = typing.Generator[Event, object, object]


class Process(Event):
    """A running simulated activity; also an event others can wait on."""

    __slots__ = ("generator", "name", "_target", "_span")

    def __init__(
        self,
        env: "Environment",
        generator: ProcessGenerator,
        name: typing.Optional[str] = None,
        inline: bool = False,
    ):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        super().__init__(env)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: typing.Optional[Event] = None
        #: innermost open span (``repro.obs`` reads and writes it; the
        #: kernel never looks)
        self._span: typing.Optional["SpanLike"] = None
        if inline:
            # First segment runs now, nested in whatever is executing.
            self._step()
            return
        # Kick the process off at the current simulated time: a start
        # event, pre-succeeded and scheduled directly (the general
        # succeed() path re-checks trigger state we know to be fresh).
        start = Event(env)
        start.callbacks.append(self._resume)
        start._value = None
        if env.monitor is not None:
            env.monitor.event_triggered(start)
        env._schedule(start)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Used by failure injection (crash a server mid-call) and by
        timeout wrappers.  Interrupting a finished process is an error.
        """
        if self.triggered:
            raise RuntimeError(f"cannot interrupt finished process {self.name!r}")
        # Detach from whatever the process was waiting on so the stale
        # resume callback never fires.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        self._target = None
        punch = Event(self.env)
        punch._add_callback(self._resume_with_interrupt(cause))
        punch.succeed(None)

    def _resume_with_interrupt(
        self, cause: object
    ) -> typing.Callable[[Event], None]:
        def callback(_event: Event) -> None:
            if self.env.monitor is not None:
                self.env.monitor.note_resume(self, _event)
            self._step(throw=Interrupt(cause))

        return callback

    def _resume(self, event: Event) -> None:
        if self.env.monitor is not None:
            self.env.monitor.note_resume(self, event)
        if event._exception is not None:
            event.defuse()
            self._step(throw=event._exception)
        else:
            self._step(send=event._value)

    def _step(self, send: object = None, throw: object = None) -> None:
        env = self.env
        monitor = env.monitor
        if monitor is not None:
            monitor.segment_begin(self)
        # Saved, not cleared: an inline start nests this segment inside
        # the caller's, which is the active process again afterwards.
        enclosing = env._active_process
        env._active_process = self
        try:
            if throw is not None:
                target = self.generator.throw(throw)
            else:
                target = self.generator.send(send)
        except StopIteration as stop:
            if self.callbacks:
                self.succeed(stop.value)
            else:
                # Nobody waits: processed on the spot, no exit event.
                self.succeed_now(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        finally:
            env._active_process = enclosing
            if monitor is not None:
                monitor.segment_end(self)
        if not isinstance(target, Event):
            error = RuntimeError(
                f"process {self.name!r} yielded {target!r}; "
                "processes may only yield Event objects"
            )
            # Surface inside the generator so user code sees a clear error.
            self._step(throw=error)
            return
        self._target = target
        target._add_callback(self._resume)
