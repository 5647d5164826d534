"""How fast is this host right now?  A yardstick read while the benchmark runs.

The benchmark runs on a few cores of a shared host that slows by up to
2x for seconds or minutes at a time, so a raw wall time says as much
about the neighbours as about the program.  :class:`HostSpeed` times a
fixed, small event loop (:func:`yardstick`: a heap, generators, small
objects, dict writes, string formatting — the kind of Python the
simulator is made of, but none of its code) every ``PERIOD_S`` from a
``SIGALRM`` handler, in the measuring process itself, and
:meth:`HostSpeed.reference_seconds` converts a stretch of wall time
into the time it would have taken at the reference host's speed, reading
by reading.  The program under test is not touched and sees no change in
simulated terms: the handler runs between two of its bytecodes.

Standard library only, so a change to the program cannot move the
yardstick.
"""

from __future__ import annotations

import heapq
import signal
import time
import typing

#: seconds between two readings
PERIOD_S = 0.05
#: one reading on the quiet 2-core reference host, in ms
REFERENCE_MS = 3.3


class _Event:
    __slots__ = ("at", "eid", "payload")

    def __init__(self, at: float, eid: int, payload: dict) -> None:
        self.at = at
        self.eid = eid
        self.payload = payload


def _process(table: dict, key: str) -> typing.Generator:
    n = 0
    while True:
        got = yield n
        table[key] = (got, n)
        n += 1


def yardstick() -> float:
    """Wall seconds of a fixed event loop: 3 000 pops, sends and pushes."""
    started = time.perf_counter()
    table: dict = {}
    processes = [_process(table, "proc-%d" % i) for i in range(32)]
    for process in processes:
        next(process)
    heap: list = []
    eid = 0
    for i in range(32):
        heapq.heappush(heap, (float(i), eid, _Event(float(i), eid, {"k": i})))
        eid += 1
    for _ in range(3_000):
        at, popped, event = heapq.heappop(heap)
        n = processes[popped % 32].send(event.payload)
        eid += 1
        heapq.heappush(
            heap,
            (at + 1.0 + (n % 7) * 0.25, eid, _Event(at, eid, {"k": n, "name": "x%d" % n})),
        )
    return time.perf_counter() - started


class HostSpeed:
    """Readings of the yardstick, from construction to :meth:`halt`."""

    def __init__(self) -> None:
        #: (entered, left, seconds the yardstick took); ``perf_counter`` times
        self.readings: typing.List[typing.Tuple[float, float, float]] = []
        #: the first reading's start on both clocks, so that a parent
        #: process can place it against its own ``time.time()``
        self.born_epoch = time.time()
        self.born = time.perf_counter()
        signal.signal(signal.SIGALRM, lambda signum, frame: self.read())
        self.read()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def read(self) -> None:
        entered = time.perf_counter()
        took = yardstick()
        self.readings.append((entered, time.perf_counter(), took))

    def halt(self) -> None:
        """No timed readings from here on (a profiler would count them);
        one is taken now, so what follows is bracketed by two halts."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.read()

    def mean_ms(self) -> float:
        return sum(took for _, _, took in self.readings) / len(self.readings) * 1e3

    def reference_seconds(self, start: float, end: float) -> float:
        """The wall time from ``start`` to ``end`` (``perf_counter``) spent
        outside the readings, each stretch scaled by reference speed over
        the speed read on either side of it."""
        readings = self.readings
        total = 0.0
        # the stretch before reading j, for j = 0 .. len (one past the last)
        for j in range(len(readings) + 1):
            lo = readings[j - 1][1] if j else float("-inf")
            hi = readings[j][0] if j < len(readings) else float("inf")
            stretch = min(hi, end) - max(lo, start)
            if stretch <= 0.0:
                continue
            around = [took for _, _, took in readings[max(0, j - 1): j + 1]]
            total += stretch * REFERENCE_MS / 1e3 / (sum(around) / len(around))
        return total
