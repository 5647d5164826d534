"""Schedule perturbation: seeded tie-break shuffling for the scenario pass.

The kernel orders events by ``(time, eid)``; eids are handed out at
schedule time, so same-timestamp events run in FIFO order.  Most code
never depends on that tie-break — but code that *does* is exactly the
code one latency-constant tweak away from a trajectory change.  The
scenario pass flips :data:`repro.sim.kernel.DEFAULT_PERTURB_SEED` so every
``Environment`` built inside the context draws a
:class:`~repro.sim.queue.PerturbedHeapQueue`, which permutes the order
of same-timestamp cohorts deterministically per seed.  Event *times*
are untouched: a perturbed run is a legal schedule the kernel could
have produced under a different arrival order, not a different
workload.

:func:`perturbed` mirrors how the scenario pass's traced run flips
:attr:`repro.obs.span.Observability.default_enabled` — a module-global
default swapped around a builder call and restored in a ``finally``.
"""

from __future__ import annotations

import contextlib
import typing

from repro.sim import kernel as _kernel
from repro.sim.queue import _mix64

#: splitmix64 increment — the same constant the queue salt uses, so the
#: derived-seed stream is a textbook splitmix64 sequence.
_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF


def derive_seed(base: int, index: int) -> int:
    """The ``index``-th perturbation seed derived from ``base``.

    A splitmix64 stream: distinct, uncorrelated 64-bit seeds that are
    reproducible from ``(base, index)`` alone — the report only
    needs to record the base seed.
    """
    return _mix64((base + (index + 1) * _GOLDEN) & _MASK64)


@contextlib.contextmanager
def perturbed(seed: typing.Optional[int]) -> typing.Iterator[None]:
    """Every ``Environment`` built inside runs schedule-perturbed.

    ``None`` restores plain FIFO tie-breaking (useful for nesting).
    """
    saved = _kernel.DEFAULT_PERTURB_SEED
    _kernel.DEFAULT_PERTURB_SEED = seed
    try:
        yield
    finally:
        _kernel.DEFAULT_PERTURB_SEED = saved
