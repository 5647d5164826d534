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

from repro.sim.events import Event, Timeout

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Environment


#: A background hold is charged in slices of at most this many ms, so a
#: foreground request that arrives mid-hold waits at most one slice.
BACKGROUND_SLICE_MS = 4.0

#: A background request that has waited this many times its own cost
#: (at least this many ms) joins the foreground FIFO: politeness is
#: bounded, so a saturated unit cannot starve background work forever.
BACKGROUND_PATIENCE = 40.0


class Request(Event):
    """Pending claim on a :class:`Resource`; triggers when granted."""

    __slots__ = ("resource", "held", "deadline")

    def __init__(self, resource: "Resource", deadline: float = float("inf")):
        super().__init__(resource.env)
        self.resource = resource
        self.held = False
        #: Background lane only: when the request turns foreground.
        self.deadline = deadline

    def release(self) -> None:
        """Give the unit back — or, if still queued, leave the queue."""
        self.resource._release(self)


class Resource:
    """A fixed-capacity resource with a FIFO lane and an idle-time lane.

    Usage inside a process::

        req = resource.request()
        try:
            yield req
            yield env.timeout(service_time)
        finally:
            req.release()

    or, equivalently, ``yield from resource.use(service_time)``.

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
        self._waiting: typing.Deque[Request] = collections.deque()
        self._background: typing.Deque[Request] = collections.deque()
        self._idle_check_pending = False

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Requests waiting, both lanes."""
        return len(self._waiting) + len(self._background)

    def request(self) -> Request:
        """A foreground claim: granted now if a unit is free, else queued."""
        req = Request(self)
        if self._in_use < self.capacity:
            self._grant(req)
        else:
            self._waiting.append(req)
        return req

    def _grant(self, req: Request) -> None:
        self._in_use += 1
        req.held = True
        req.succeed(None)

    def _release(self, req: Request) -> None:
        if req.held:
            req.held = False
            self._free()
            return
        for lane in (self._waiting, self._background):
            if req in lane:
                lane.remove(req)
                return
        raise RuntimeError(
            "release() of a request that neither holds nor waits for the resource"
        )

    def _free(self) -> None:
        """A unit came free: hand it on, foreground first."""
        self._in_use -= 1
        background = self._background
        if background:
            now = self.env.now
            for req in [r for r in background if r.deadline <= now]:
                background.remove(req)
                self._waiting.append(req)
        if self._waiting:
            self._grant(self._waiting.popleft())
        elif background:
            self._schedule_idle_check()

    def _schedule_idle_check(self) -> None:
        if not self._idle_check_pending:
            self._idle_check_pending = True
            check = self.env.event()
            check._add_callback(self._on_idle_check)
            check.succeed(None)

    def _on_idle_check(self, _check: Event) -> None:
        self._idle_check_pending = False
        while self._background and self._in_use < self.capacity:
            self._grant(self._background.popleft())

    def use(
        self, service_ms: float, background: bool = False
    ) -> typing.Generator[Event, object, None]:
        """Process fragment: acquire, hold ``service_ms``, release.

        An interrupt (or any exception thrown in) while queued leaves
        the queue; while holding, releases the unit.
        """
        if service_ms < 0:
            raise ValueError(f"negative service time: {service_ms}")
        if background and service_ms > 0:
            yield from self._use_background(service_ms)
        elif self._in_use < self.capacity:
            # Uncontended: take the unit on the spot, so the hold is the
            # charge's only kernel event.
            self._in_use += 1
            try:
                if service_ms > 0:
                    yield Timeout(self.env, service_ms)
            finally:
                self._free()
        else:
            req = Request(self)
            self._waiting.append(req)
            try:
                yield req
                if service_ms > 0:
                    yield Timeout(self.env, service_ms)
            finally:
                req.release()

    def _use_background(
        self, service_ms: float
    ) -> typing.Generator[Event, object, None]:
        env = self.env
        deadline = env.now + BACKGROUND_PATIENCE * max(service_ms, 1.0)
        remaining = service_ms
        req = Request(self, deadline)
        self._background.append(req)
        if self._in_use < self.capacity:
            self._schedule_idle_check()
        while True:
            try:
                yield req
                while remaining > 0:
                    step = min(BACKGROUND_SLICE_MS, remaining)
                    yield Timeout(env, step)
                    remaining -= step
                    if self._waiting:
                        break
            finally:
                req.release()
            if remaining <= 0:
                return
            # Gave way: the release handed the unit to the foreground
            # waiter.  Queue again, ahead of later background arrivals.
            req = Request(self, deadline)
            if env.now < deadline:
                self._background.appendleft(req)
            else:
                self._waiting.append(req)


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

    def compute(
        self, cost_ms: float, background: bool = False
    ) -> typing.Generator[Event, object, None]:
        """Charge ``cost_ms`` of compute, scaled by the host's speed.

        Returns :meth:`use`'s generator itself, so a charge is one
        generator frame under the caller's ``yield from``.
        """
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

    def read(self, size_bytes: int = 0) -> typing.Generator[Event, object, None]:
        """One disk access transferring ``size_bytes``."""
        if size_bytes < 0:
            raise ValueError(f"negative read size: {size_bytes}")
        return self.use(self.access_ms + self.per_kb_ms * size_bytes / 1024.0)

    write = read  # Same cost model either direction.
