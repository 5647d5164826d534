"""The simulation environment: virtual clock plus event queue.

:class:`Environment` is deliberately small.  Everything else in the
repository — network messages, RPC calls, disk reads, cache probes — is
expressed as processes and events scheduled here.  Time is in simulated
milliseconds, matching the units of every number in the paper.

The event queue is one binary heap (:mod:`repro.sim.queue`) processed
in ``(time, eid)`` order; ``eid`` is assigned in scheduling order, so
simultaneous events fire FIFO.  Long timers wait for their turn in the
heap in per-delay FIFO lanes (:class:`_Lane`).
"""

from __future__ import annotations

import collections
import typing
from heapq import heappop

from repro.obs.span import Observability
from repro.sim.events import _PENDING, AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process, ProcessGenerator
from repro.sim.queue import Entry, HeapQueue, PerturbedHeapQueue
from repro.sim.rng import RngRegistry
from repro.sim.stats import StatsRegistry
from repro.sim.trace import Tracer

#: Schedule-perturbation seed used when ``Environment(perturb_seed=None)``.
#: ``None`` (always, outside the scenario pass's perturbed runs) means
#: no perturbation: the FIFO ``(time, eid)`` tie-break, digest-identical
#: behaviour.  The scenario pass (:mod:`repro.analysis.perturb`) flips
#: this module global around a scenario builder the same way its traced
#: run flips :attr:`~repro.obs.span.Observability.default_enabled`,
#: so every environment the builder constructs drains same-timestamp
#: cohorts in a seeded shuffled order.
DEFAULT_PERTURB_SEED: typing.Optional[int] = None

#: A ``Timeout`` of at least this many ms is a *standing* timer (a lease,
#: a TTL, a deadline) and queues in its delay's :class:`_Lane`.  Either
#: side of the line is correct — below it a timer pays the heap's depth,
#: above it a dict probe — so it sits over the delays of in-flight work
#: (wire trips, charges, retries) and under those that pile up.
STANDING_MS = 1_000.0

_new = object.__new__


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (e.g. running into the past)."""


class _Lane:
    """The standing timers of one delay, in the order they were armed.

    The clock never runs backwards, ``now + delay`` is monotone in
    ``now`` and eids only grow, so a lane is in ``(time, eid)`` order
    without being sorted.  Only its head is in the heap, under its own
    key; :meth:`advance` rides on the head as callback 0 and pushes the
    next entry when the head pops, before anything else can run — the
    heap still decides every ordering, over far fewer entries.
    """

    __slots__ = ("env", "delay", "waiting")

    def __init__(self, env: "Environment", delay: float):
        self.env = env
        self.delay = delay
        #: Entries behind the head; most distinct delays never have one.
        self.waiting: typing.Optional[typing.Deque[Entry]] = None

    def advance(self, _head: Event) -> None:
        """The head came due: the next entry takes its place in the heap."""
        waiting = self.waiting
        if waiting:
            entry = waiting.popleft()
            callbacks = entry[2].callbacks
            assert callbacks is not None  # a waiting timeout has not run
            callbacks.insert(0, self.advance)
            self.env._push(entry)
        else:  # or every unique long delay would leak a lane
            del self.env._lanes[self.delay]


class Environment:
    """Owns the virtual clock, the event queue, and run control.

    Parameters
    ----------
    seed:
        Master seed for the per-purpose random streams handed out by
        :attr:`rng`.  Two environments with the same seed replay the
        same simulation exactly.
    perturb_seed:
        When set, same-timestamp events drain in a seeded shuffled
        order instead of FIFO (the scenario pass's perturbed runs only).
        ``None`` means :data:`DEFAULT_PERTURB_SEED`.
    """

    def __init__(
        self,
        seed: int = 0,
        perturb_seed: typing.Optional[int] = None,
    ):
        self._now: float = 0.0
        if perturb_seed is None:
            perturb_seed = DEFAULT_PERTURB_SEED
        self.perturb_seed = perturb_seed
        self._queue: HeapQueue = (
            HeapQueue()
            if perturb_seed is None
            else PerturbedHeapQueue(perturb_seed)
        )
        #: The queue's bound push: whoever schedules an entry assigns it
        #: the next ``_eid`` and calls ``_push((time, eid, event))``.
        self._push: typing.Callable[[Entry], None] = self._queue.heappush
        #: Delay → its lane of standing timers, while one is armed.
        self._lanes: typing.Dict[float, _Lane] = {}
        #: ``Timeout`` lanes delays from here up.  Never when perturbed:
        #: a same-instant cohort inside a FIFO lane would not shuffle.
        self._standing_ms = STANDING_MS if perturb_seed is None else float("inf")
        #: Next event id; assigned in scheduling order so simultaneous
        #: events fire FIFO.  Doubles as the count of heap entries
        #: scheduled (an event processed inline never gets one).
        self._eid = 0
        self._active_process: typing.Optional[Process] = None
        self.rng = RngRegistry(seed)
        self.trace = Tracer(self)
        self.stats = StatsRegistry(self)
        #: Span-based causal tracing (:mod:`repro.obs`); off by default
        #: and digest-neutral when enabled.
        self.obs = Observability(self)

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    @property
    def active_process(self) -> typing.Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # ------------------------------------------------------------------
    # Event construction helpers
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """An event triggering ``delay`` ms from now, carrying ``value``
        (the one place a :class:`Timeout` is built, filled in place)."""
        if not delay >= 0:  # also rejects NaN, which no compare orders
            raise ValueError(f"negative or NaN delay: {delay!r}")
        timeout = _new(Timeout)
        timeout.env = self
        timeout.callbacks = []
        timeout._exception = None
        timeout._defused = False
        timeout.delay = delay = float(delay)
        timeout._value = value
        eid = self._eid
        self._eid = eid + 1
        if delay >= self._standing_ms:
            self._arm_standing(delay, (self._now + delay, eid, timeout))
        else:
            self._push((self._now + delay, eid, timeout))
        return timeout

    def call_later(
        self,
        delay: float,
        callback: typing.Callable[[Event], None],
        value: object = None,
    ) -> Timeout:
        """Run ``callback(timeout)`` ``delay`` ms from now.

        One heap entry and no process: the primitive for a hop that
        only waits and then acts (a wire trip, a reply trip) — what a
        real-socket runtime would hand to ``loop.call_later``.  The
        callback runs in no process (``active_process`` is None).
        """
        timeout = self.timeout(delay, value)
        timeout.callbacks.append(callback)
        return timeout

    def process(
        self,
        generator: ProcessGenerator,
        name: typing.Optional[str] = None,
        inline: bool = False,
    ) -> Process:
        """Start ``generator`` as a process at the current time.

        By default its first segment runs at a start event, after the
        caller has yielded.  With ``inline=True`` it runs now, nested in
        the caller (which stays :attr:`active_process` afterwards): for
        a process started *by* the event being processed, such as a
        handler at the delivery of its message.  The one place a
        :class:`Process` is built: it and its start event (its first
        target, which an interrupt detaches) are filled in place.
        """
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        process = _new(Process)
        process.env = self
        process.callbacks = []
        process._value = _PENDING
        process._exception = None
        process._defused = False
        process.generator = generator
        process.name = name or getattr(generator, "__name__", "process")
        process._span = None
        if inline:
            process._target = None
            process._resume()
            return process
        process._target = start = _new(Event)
        start.env = self
        start.callbacks = [process._resume]
        start._value = None
        start._exception = None
        start._defused = False
        eid = self._eid
        self._eid = eid + 1
        self._push((self._now, eid, start))
        return process

    def any_of(self, events: typing.Sequence[Event]) -> AnyOf:
        """Event triggering when any of ``events`` does."""
        return AnyOf(self, events)

    def all_of(self, events: typing.Sequence[Event]) -> AllOf:
        """Event triggering when all of ``events`` have."""
        return AllOf(self, events)

    # ------------------------------------------------------------------
    # Scheduling and execution
    # ------------------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if queue is empty."""
        return self._queue.peek()

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        entry = self._queue.pop()
        if entry is None:
            raise SimulationError("step() on an empty event queue")
        self._now = entry[0]
        entry[2]._process()

    def run(
        self,
        until: typing.Union[None, float, Event] = None,
    ) -> object:
        """Run the simulation.

        - ``until=None``: run until the event queue drains.
        - ``until=<float>``: run until the clock reaches that time.
        - ``until=<Event>``: run until that event has been processed and
          return its value (raising its exception if it failed).

        The kernel pops the heap directly with events' callbacks
        inlined (:meth:`_drain`).
        """
        target: typing.Optional[Event] = None
        horizon = float("inf")
        if isinstance(until, Event):
            target = until
            # Defuse so the kernel does not double-report a failure we are
            # about to raise from .value below.
            target._add_callback(lambda e: e.defuse() if not e.ok else None)
            if target.processed:
                return target.value
        elif until is not None:
            horizon = float(until)
            if horizon != horizon:
                raise ValueError("run(until=nan): NaN orders against no time")
            if horizon < self._now:
                raise SimulationError(
                    f"run(until={horizon}) is in the past (now={self._now})"
                )
        self._drain(target, horizon)
        if target is not None:
            if not target.processed:
                raise SimulationError(
                    "event queue drained before the awaited event "
                    "triggered (deadlock?)"
                )
            return target.value
        if until is not None:
            self._now = horizon
        return None

    def _arm_standing(self, delay: float, entry: Entry) -> None:
        """Schedule a new ``Timeout`` of at least :data:`STANDING_MS`."""
        lane = self._lanes.get(delay)
        if lane is not None:
            waiting = lane.waiting
            if waiting is None:
                waiting = lane.waiting = collections.deque()
            waiting.append(entry)
        else:  # first of its delay: straight into the heap, as head
            lane = self._lanes[delay] = _Lane(self, delay)
            entry[2].callbacks = [lane.advance]
            self._push(entry)

    def _drain(self, target: typing.Optional[Event], horizon: float) -> None:
        """The run loop: pop the heap, run callbacks inline.

        The heap is globally ordered, so anything a callback schedules
        simply sorts into place before the next pop.  Stops when the
        queue drains, when the next entry lies past ``horizon``, or —
        with ``target`` — as soon as ``target`` has been processed.  An
        unhandled failed event raises from here (the inlined equivalent
        of :meth:`Event._process`'s re-raise).  ``_now`` is left at the
        last processed entry.
        """
        heap = self._queue.heap
        while heap and heap[0][0] <= horizon:
            self._now, _, event = heappop(heap)
            callbacks = event.callbacks
            event.callbacks = None
            if callbacks:
                for callback in callbacks:
                    callback(event)
                if target is not None and target.callbacks is None:
                    return
            elif event._exception is not None and not event._defused:
                raise event._exception

    # ------------------------------------------------------------------
    # Kernel self-instrumentation
    # ------------------------------------------------------------------
    def kernel_counters(self) -> typing.Dict[str, int]:
        """The kernel's own performance counters, as plain data.

        Both count heap entries, a timer waiting in its lane as one
        scheduled and not yet processed: conditions, inline triggers,
        inline process starts and unwaited process exits are events but
        never enter the queue, so they are in neither.  Deliberately *not*
        recorded in :attr:`stats`, so scenario digests do not depend on
        how many events a run took.
        """
        return {
            "sim.kernel.events_scheduled": self._eid,
            "sim.kernel.events_processed": self._eid
            - len(self._queue)
            - sum(len(lane.waiting or ()) for lane in self._lanes.values()),
        }
