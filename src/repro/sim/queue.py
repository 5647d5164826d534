"""The event queue: one binary heap of ``(time, eid, event)`` entries.

The kernel's scheduling contract is simple and absolute: events are
processed in ``(time, eid)`` order, where ``eid`` is assigned in
scheduling order — so simultaneous events fire FIFO.  A single
C-accelerated ``heapq`` delivers exactly that at O(log n) per
operation, and the cost depends on how many entries stand in it, not
on when they are due — which is why the kernel keeps standing timers
out of it until they are next of their delay
(:class:`repro.sim.kernel._Lane`): this heap orders, the lanes admit.

Entries never compare beyond ``eid`` (eids are unique), so the
``Event`` in slot 2 of an entry tuple is never ordered.
"""

from __future__ import annotations

import functools
import typing
from heapq import heappop, heappush

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.events import Event

#: One queue entry: (absolute time ms, eid, event).
Entry = typing.Tuple[float, int, "Event"]

_INF = float("inf")


class HeapQueue:
    """One binary heap of (time, eid, event).

    ``heap`` is the raw ``heapq`` list: the kernel's drain
    pops it directly.  ``heappush`` is C ``heappush`` bound to that
    list, so scheduling an entry is one C call; everything else goes
    through the methods.
    """

    __slots__ = ("heap", "heappush")

    def __init__(self) -> None:
        self.heap: typing.List[Entry] = []
        self.heappush: typing.Callable[[Entry], None] = functools.partial(
            heappush, self.heap
        )

    def pop(self) -> typing.Optional[Entry]:
        heap = self.heap
        if not heap:
            return None
        return heappop(heap)

    def peek(self) -> float:
        heap = self.heap
        return heap[0][0] if heap else _INF

    def __len__(self) -> int:
        return len(self.heap)


_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mix64(value: int) -> int:
    """The splitmix64 finalizer: a bijective 64-bit avalanche mix.

    Bijectivity is what the perturbed queue needs — distinct eids map
    to distinct keys, so the permuted tie-break order is still a total
    order and no entry ever compares into the :class:`Event` slot.
    """
    value &= _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


class PerturbedHeapQueue(HeapQueue):
    """A heap queue whose same-timestamp tie-break is a seeded shuffle.

    The kernel's contract is ``(time, eid)`` order: simultaneous events
    fire FIFO.  Real systems make no such promise — two messages due at
    the same instant can be delivered either way — so code that is only
    correct because of the FIFO tie-break is relying on an accident of
    the scheduler.  This queue replaces the eid tie-break with
    ``_mix64(eid ^ salt)``, a seed-keyed permutation: event *times* are
    untouched (the virtual clock reads identically), but every
    same-timestamp cohort drains in a seed-dependent shuffled order.
    Each seed yields one fixed, replayable order, so a perturbed run is
    exactly as deterministic as a plain one.

    Used by the scenario pass's perturbed runs
    (:mod:`repro.analysis.perturb`); never a default.  Only
    ``heappush`` differs, so the kernel pops it like any heap.
    """

    __slots__ = ("perturb_seed", "_salt")

    def __init__(self, perturb_seed: int = 0) -> None:
        super().__init__()
        self.perturb_seed = perturb_seed
        self._salt = _mix64(perturb_seed ^ 0x9E3779B97F4A7C15)
        self.heappush = self._push_perturbed

    def _push_perturbed(self, entry: Entry) -> None:
        time, eid, event = entry
        heappush(self.heap, (time, _mix64(eid ^ self._salt), event))
