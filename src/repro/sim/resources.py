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

    It carries its service time; the resource gives it the unit when
    its turn comes, holds for ``remaining`` ms (a background charge in
    slices), and whoever yields the charge is woken once, when all that
    is over.  A charge triggers by becoming the heap entry of its own
    (last) hold.  The unit is the holder's until that entry is
    processed, so nothing need run to free it; :meth:`Resource._free`
    rides on the entry, ahead of the waiter's callback, only when
    another claim waits to be handed the unit.

    :meth:`Resource.use` is the one place a charge is built (its fields
    are set there, with no constructor frame): ``remaining`` is the
    service time not yet scheduled as a hold, ``deadline`` the instant a
    background charge turns foreground (infinite for a foreground one).
    """

    __slots__ = ("resource", "deadline", "remaining")

    resource: "Resource"
    deadline: float
    remaining: float

    def _waiter_left(self, _interrupt: Event) -> None:
        """Interrupted: leave the queue, or free the unit here and now
        (the heap entry then pops with nothing to do) — or nothing, when
        the hold ended between ``interrupt()`` and its delivery."""
        if self.callbacks is not None:
            self.resource._release(self)


class Resource:
    """A single-unit device with a FIFO lane and an idle-time lane.

    Usage inside a process is ``yield resource.use(service_time)``: the
    charge takes the unit, holds it and lets it go.

    One charge holds the unit at a time, and :attr:`_holder` names it:
    the unit is busy while the holder's charge is unprocessed.  An
    uncontended charge is one heap entry whose only callback is its
    waiter's; a claim that has to wait puts :meth:`_free` on the
    holder's entry (once per hold, :attr:`_armed`), which hands the unit
    on when the hold ends.

    **Foreground** requests are served FIFO.  **Background** requests
    (``use(..., background=True)``) model a low-priority thread: one is
    granted only when the unit is free *and still free* once everything
    else scheduled for that instant has run (a zero-delay idle check, so
    a foreground operation's back-to-back charges are never split); it
    holds in slices of :data:`BACKGROUND_SLICE_MS` and, between slices,
    gives the unit up if a foreground request is waiting.  Background
    requests are FIFO among themselves, and one that has waited
    :data:`BACKGROUND_PATIENCE` times its cost joins the foreground FIFO.

    The idle check is one heap entry per resource, :attr:`_check`,
    filled and pushed in place.  A foreground claim that takes the free
    unit empties a pending check's callbacks (it would find the unit
    busy), and a :meth:`_free` before it pops re-arms it, so it always
    pops at its own ``(time, eid)``.
    """

    def __init__(self, env: "Environment", name: str = ""):
        self.env = env
        self.name = name
        #: the charge that holds the unit, or last held it: the unit is
        #: busy while this charge is unprocessed
        self._holder: typing.Optional[Charge] = None
        #: the holder's hold ends in :meth:`_free` (a background hold
        #: always does; a foreground one once a claim waits behind it)
        self._armed = False
        self._waiting: typing.Deque[Charge] = collections.deque()
        self._background: typing.Deque[Charge] = collections.deque()
        #: no background charge's deadline is earlier than this, so
        #: ``_free`` looks for lapsed patience only once it has passed
        self._next_deadline = _INF
        #: the idle check's heap entry: in the heap while its callbacks
        #: are a list (empty while moot), ``None`` once it has popped
        self._check = check = _new(Event)
        check.env = env
        check.callbacks = None
        check._value = None
        check._exception = None
        check._defused = False
        #: an armed check's callbacks (the kernel never mutates them)
        self._check_armed: typing.List[typing.Callable[[Event], None]] = [
            self._on_idle_check
        ]

    @property
    def in_use(self) -> int:
        """1 while a charge holds the unit, else 0."""
        holder = self._holder
        return int(holder is not None and holder.callbacks is not None)

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
        charge.remaining = service_ms
        holder = self._holder
        if holder is not None and holder.callbacks is not None:
            # Busy: queue, and make sure the hold ends by handing on.
            if background and service_ms > 0:
                deadline = env.now + BACKGROUND_PATIENCE * max(service_ms, 1.0)
                charge.deadline = deadline
                if deadline < self._next_deadline:
                    self._next_deadline = deadline
                self._background.append(charge)
            else:
                charge.deadline = _INF
                self._waiting.append(charge)
            if not self._armed:
                self._armed = True
                holder.callbacks.insert(0, self._free)
        elif service_ms <= 0:
            # Nothing to hold: over before it is yielded.
            charge.deadline = _INF
            self._free()
            charge.succeed_now()
        elif background:
            deadline = env.now + BACKGROUND_PATIENCE * max(service_ms, 1.0)
            charge.deadline = deadline
            if deadline < self._next_deadline:
                self._next_deadline = deadline
            self._background.append(charge)
            self._schedule_idle_check()
        else:
            # Uncontended, as most charges are: the charge is the heap
            # entry of its whole hold, and nothing runs when it ends
            # unless background work waits for the unit (its idle check
            # is pending, as it arrived while the unit was free).
            charge.deadline = _INF
            self._holder = charge
            charge._value = None
            if self._background:
                self._armed = True
                charge.callbacks.append(self._free)
                # Background work waits on a free unit only while its
                # idle check is pending, and that check is now moot.
                self._check.callbacks = []
            else:
                self._armed = False
            eid = env._eid
            env._eid = eid + 1
            env._push((env.now + service_ms, eid, charge))
        return charge

    def _hold(self, charge: Charge) -> None:
        """The unit is background ``charge``'s: schedule its next slice,
        or its last one with the charge as the heap entry."""
        env = self.env
        remaining = charge.remaining
        if remaining > BACKGROUND_SLICE_MS:
            charge.remaining = remaining - BACKGROUND_SLICE_MS
            # The slice's timer, filled in place; its value is the charge.
            timer = _new(Event)
            timer.env = env
            timer.callbacks = [self._on_slice_end]
            timer._value = charge
            timer._exception = None
            timer._defused = False
            eid = env._eid
            env._eid = eid + 1
            env._push((env.now + BACKGROUND_SLICE_MS, eid, timer))
            return
        charge._value = None
        charge.callbacks.insert(0, self._free)
        eid = env._eid
        env._eid = eid + 1
        env._push((env.now + remaining, eid, charge))

    def _on_slice_end(self, timer: Event) -> None:
        charge = timer._value
        assert isinstance(charge, Charge)
        if self._holder is not charge:
            return  # its waiter was interrupted mid-slice
        if not self._waiting:
            self._hold(charge)
            return
        # Give way: the freed unit goes to the foreground waiter, and
        # the charge queues again ahead of later background arrivals.
        self._free()
        if self.env.now < charge.deadline:
            self._background.appendleft(charge)
            if charge.deadline < self._next_deadline:
                self._next_deadline = charge.deadline
        else:
            self._waiting.append(charge)
        if not self._armed:  # the new holder's hold hands on to this one
            self._armed = True
            self._holder.callbacks.insert(0, self._free)  # type: ignore[union-attr]

    def _release(self, charge: Charge) -> None:
        if self._holder is charge:
            if self._armed and charge._value is not _PENDING:
                # its last hold's entry will pop with nothing to do
                charge.callbacks.remove(self._free)  # type: ignore[union-attr]
            self._free()
            return
        for lane in (self._waiting, self._background):
            if charge in lane:
                lane.remove(charge)
                return
        raise RuntimeError("a charge that neither holds nor waits for the resource")

    def _free(self, _hold: typing.Optional[Event] = None) -> None:
        """The unit came free: hand it on, foreground first.

        Background charges whose patience has run out join the
        foreground FIFO first, looked for only once the lane's earliest
        deadline has passed.  A queued foreground charge gets the unit
        and its whole hold here, with the charge as the hold's heap
        entry (carrying this method again only if a claim still waits);
        a background charge holds slice by slice.
        """
        self._holder = None
        background = self._background
        if background and self._next_deadline <= self.env.now:
            self._promote_lapsed()
        waiting = self._waiting
        if not waiting:
            if background:
                self._schedule_idle_check()
            return
        charge = waiting.popleft()
        self._holder = charge
        if charge.deadline < _INF:
            self._armed = True
            self._hold(charge)
            return
        env = self.env
        charge._value = None
        if waiting or background:
            self._armed = True
            charge.callbacks.insert(0, self._free)  # type: ignore[union-attr]
        else:
            self._armed = False
        eid = env._eid
        env._eid = eid + 1
        env._push((env.now + charge.remaining, eid, charge))

    def _promote_lapsed(self) -> None:
        """Move each background charge whose patience has run out to the
        foreground FIFO, in lane order, and note the next deadline."""
        background = self._background
        now = self.env.now
        for charge in [c for c in background if c.deadline <= now]:
            background.remove(charge)
            self._waiting.append(charge)
        self._next_deadline = min((c.deadline for c in background), default=_INF)

    def _schedule_idle_check(self) -> None:
        """Push the idle check for this instant, or re-arm the pending
        one a foreground claim emptied."""
        check = self._check
        if check.callbacks is None:
            env = self.env
            eid = env._eid
            env._eid = eid + 1
            env._push((env.now, eid, check))
        check.callbacks = self._check_armed

    def _on_idle_check(self, _check: Event) -> None:
        background = self._background
        holder = self._holder
        if background and (holder is None or holder.callbacks is None):
            charge = background.popleft()
            self._holder = charge
            self._armed = True
            self._hold(charge)


class CPU(Resource):
    """A host processor charging compute time in ms.

    Every host computes at the speed the calibration was fit to (the
    paper measured MicroVAX-IIs), so a compute charge is :meth:`use`.
    """

    compute = Resource.use


#: a disk's fixed cost per access (ms)
DISK_ACCESS_MS = 30.0
#: a disk's transfer cost per KiB (ms)
DISK_PER_KB_MS = 1.0


class Disk(Resource):
    """A disk with per-access latency plus per-byte transfer time."""

    def read(self, size_bytes: int = 0) -> Event:
        """One disk access transferring ``size_bytes``: the event to
        ``yield`` (:meth:`use`)."""
        if size_bytes < 0:
            raise ValueError(f"negative read size: {size_bytes}")
        return self.use(DISK_ACCESS_MS + DISK_PER_KB_MS * size_bytes / 1024.0)

    write = read  # Same cost model either direction.
