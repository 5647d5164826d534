"""Contended devices: generic resources, CPUs, and disks.

The Clearinghouse's slowness in the paper comes from authenticating every
access and reading virtually all data from disk; BIND is fast because it
keeps everything in primary memory.  We model that by charging simulated
service time on per-host CPU and Disk resources, so concurrent load
queues realistically.
"""

from __future__ import annotations

import collections
import typing

from repro.sim.events import _PENDING, Event

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment


_INF = float("inf")
#: An instance with no ``__init__`` run: ``use`` fills its Charge in place.
_new = object.__new__

#: A background hold is charged in slices of at most this many ms, so a
#: foreground request that arrives mid-hold waits at most one slice.
BACKGROUND_SLICE_MS = 4.0

#: A background request that has waited this many times its own cost
#: (at least this many ms) joins the foreground FIFO: politeness is
#: bounded, so a saturated unit cannot starve background work forever.
BACKGROUND_PATIENCE = 40.0


class Charge(Event):
    """One :meth:`Resource.use`: a claim the resource itself drives.

    It carries its service time; the resource takes the unit when the
    charge's turn comes, holds for ``remaining`` ms (a background charge
    in slices) and frees the unit, and whoever yields the charge is
    woken once, when all that is over.  A charge triggers by becoming
    the heap entry of its own (last) hold, :meth:`Resource._free` ahead
    of the waiter's callback, so the unit is free before the waiter runs.

    :meth:`Resource.use` is the one place a charge is built (its fields
    are set there, with no constructor frame): ``remaining`` is the
    service time not yet scheduled as a hold, ``deadline`` the instant a
    background charge turns foreground (infinite for a foreground one).
    """

    __slots__ = ("resource", "held", "deadline", "remaining")

    resource: "Resource"
    held: bool
    deadline: float
    remaining: float

    def _waiter_left(self, _interrupt: Event) -> None:
        """Interrupted: leave the queue, or free the unit here and now
        (the heap entry then pops with nothing to do) — or nothing, when
        the hold ended between ``interrupt()`` and its delivery."""
        if self.callbacks is not None:
            if self._value is not _PENDING:
                self.callbacks.remove(self.resource._free)
            self.resource._release(self)


class Resource:
    """A fixed-capacity resource with a FIFO lane and an idle-time lane.

    Usage inside a process is ``yield resource.use(service_time)``: the
    resource acquires a unit, holds it and frees it.

    **Foreground** requests are served FIFO.  **Background** requests
    (``use(..., background=True)``) model a low-priority thread: one is
    granted only when a unit is free *and still free* once everything
    else scheduled for that instant has run (a zero-delay idle check, so
    a foreground operation's back-to-back charges are never split); it
    holds in slices of :data:`BACKGROUND_SLICE_MS` and, between slices,
    gives the unit up if a foreground request is waiting.  Background
    requests are FIFO among themselves, and one that has waited
    :data:`BACKGROUND_PATIENCE` times its cost joins the foreground FIFO.
    """

    def __init__(self, env: "Environment", capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiting: typing.Deque[Charge] = collections.deque()
        self._background: typing.Deque[Charge] = collections.deque()
        #: no background charge's deadline is earlier than this, so
        #: ``_free`` looks for lapsed patience only once it has passed
        self._next_deadline = _INF
        self._idle_check_pending = False

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Charges waiting, both lanes."""
        return len(self._waiting) + len(self._background)

    def use(self, service_ms: float, background: bool = False) -> Event:
        """Acquire, hold ``service_ms``, release: the event to ``yield``.

        One heap entry (none at zero cost on a free unit) and one
        wake-up, contended or not, and one Python frame (this one) to
        build and start it.  An uncontended charge's hold is scheduled
        here; a queued one's by :meth:`_free`, when the unit is handed
        on.  An interrupt delivered to the waiter while the charge is
        queued takes it out of the queue; while it holds, frees the unit.
        """
        if not service_ms >= 0:  # also rejects NaN, either lane
            raise ValueError(f"negative or NaN service time: {service_ms}")
        env = self.env
        charge = _new(Charge)
        charge.env = env
        charge.callbacks = []
        charge._value = _PENDING
        charge._exception = None
        charge._defused = False
        charge.resource = self
        charge.held = False
        charge.remaining = service_ms
        if background and service_ms > 0:
            deadline = env._now + BACKGROUND_PATIENCE * max(service_ms, 1.0)
            charge.deadline = deadline
            if deadline < self._next_deadline:
                self._next_deadline = deadline
            self._background.append(charge)
            if self._in_use < self.capacity:
                self._schedule_idle_check()
            return charge
        charge.deadline = _INF
        if self._in_use >= self.capacity:
            self._waiting.append(charge)
        elif service_ms > 0:
            # Uncontended, as most charges are: the charge is the heap
            # entry of its whole hold.
            self._in_use += 1
            charge.held = True
            charge._value = None
            charge.callbacks.append(self._free)
            eid = env._eid
            env._eid = eid + 1
            env._push((env._now + service_ms, eid, charge))
        else:
            # Nothing to hold: over before it is yielded.
            self._in_use += 1
            self._free()
            charge.succeed_now()
        return charge

    def _hold(self, charge: Charge) -> None:
        """The unit is background ``charge``'s: schedule its next slice,
        or its last one with the charge as the heap entry."""
        env = self.env
        remaining = charge.remaining
        if remaining > BACKGROUND_SLICE_MS:
            charge.remaining = remaining - BACKGROUND_SLICE_MS
            env.call_later(BACKGROUND_SLICE_MS, self._on_slice_end, charge)
            return
        charge._value = None
        charge.callbacks.insert(0, self._free)
        eid = env._eid
        env._eid = eid + 1
        env._push((env._now + remaining, eid, charge))

    def _on_slice_end(self, timer: Event) -> None:
        charge = timer._value
        assert isinstance(charge, Charge)
        if not charge.held:
            return  # its waiter was interrupted mid-slice
        if not self._waiting:
            self._hold(charge)
            return
        # Give way: the freed unit goes to the foreground waiter, and
        # the charge queues again ahead of later background arrivals.
        charge.held = False
        self._free()
        if self.env._now < charge.deadline:
            self._background.appendleft(charge)
            if charge.deadline < self._next_deadline:
                self._next_deadline = charge.deadline
        else:
            self._waiting.append(charge)

    def _release(self, charge: Charge) -> None:
        if charge.held:
            charge.held = False
            self._free()
            return
        for lane in (self._waiting, self._background):
            if charge in lane:
                lane.remove(charge)
                return
        raise RuntimeError("a charge that neither holds nor waits for the resource")

    def _free(self, _hold: typing.Optional[Event] = None) -> None:
        """A unit came free: hand it on, foreground first.

        Background charges whose patience has run out join the
        foreground FIFO first, looked for only once the lane's earliest
        deadline has passed.  A queued foreground charge gets the unit
        and its whole hold here, with the charge as the hold's heap
        entry; a background charge holds slice by slice.
        """
        self._in_use -= 1
        background = self._background
        if background and self._next_deadline <= self.env._now:
            self._promote_lapsed()
        waiting = self._waiting
        if not waiting:
            if background:
                self._schedule_idle_check()
            return
        charge = waiting.popleft()
        self._in_use += 1
        charge.held = True
        if charge.deadline < _INF:
            self._hold(charge)
        else:
            env = self.env
            charge._value = None
            charge.callbacks.insert(0, self._free)
            eid = env._eid
            env._eid = eid + 1
            env._push((env._now + charge.remaining, eid, charge))

    def _promote_lapsed(self) -> None:
        """Move each background charge whose patience has run out to the
        foreground FIFO, in lane order, and note the next deadline."""
        background = self._background
        now = self.env._now
        for charge in [c for c in background if c.deadline <= now]:
            background.remove(charge)
            self._waiting.append(charge)
        self._next_deadline = min((c.deadline for c in background), default=_INF)

    def _schedule_idle_check(self) -> None:
        if not self._idle_check_pending:
            self._idle_check_pending = True
            self.env.call_later(0.0, self._on_idle_check)

    def _on_idle_check(self, _check: Event) -> None:
        self._idle_check_pending = False
        background = self._background
        while background and self._in_use < self.capacity:
            charge = background.popleft()
            self._in_use += 1
            charge.held = True
            self._hold(charge)


class CPU(Resource):
    """A host processor charging compute time in ms.

    ``speed_factor`` scales charged costs, letting scenarios model the
    mixed hardware of the HCS testbed (a Tektronix workstation is slower
    than a MicroVAX-II).
    """

    def __init__(self, env: "Environment", name: str = "", speed_factor: float = 1.0):
        if speed_factor <= 0:
            raise ValueError(f"speed_factor must be positive, got {speed_factor}")
        super().__init__(env, capacity=1, name=name)
        self.speed_factor = speed_factor
        if speed_factor == 1.0:
            # x / 1.0 == x exactly, so a full-speed charge is use() itself.
            self.compute = self.use  # type: ignore[method-assign]

    def compute(self, cost_ms: float, background: bool = False) -> Event:
        """Charge ``cost_ms`` of compute, scaled by the host's speed:
        the event to ``yield`` (:meth:`use`)."""
        return self.use(cost_ms / self.speed_factor, background)


class Disk(Resource):
    """A disk with per-access latency plus per-byte transfer time."""

    def __init__(
        self,
        env: "Environment",
        name: str = "",
        access_ms: float = 30.0,
        per_kb_ms: float = 1.0,
    ):
        if access_ms < 0 or per_kb_ms < 0:
            raise ValueError("disk parameters must be non-negative")
        super().__init__(env, capacity=1, name=name)
        self.access_ms = access_ms
        self.per_kb_ms = per_kb_ms

    def read(self, size_bytes: int = 0) -> Event:
        """One disk access transferring ``size_bytes``: the event to
        ``yield`` (:meth:`use`)."""
        if size_bytes < 0:
            raise ValueError(f"negative read size: {size_bytes}")
        return self.use(self.access_ms + self.per_kb_ms * size_bytes / 1024.0)

    write = read  # Same cost model either direction.
