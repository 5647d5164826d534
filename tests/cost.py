"""What a piece of simulated code costs the host and the kernel, counted.

Every count here comes from one ``sys.setprofile`` hook, :class:`Calls`:
Python frames entered or resumed (``call`` events) and C calls.  A
probe measures through :func:`window` — per round, with the heap
entries and the processes started — and registers with :func:`probe`
as one row of ``COSTS`` (``tests/test_costs.py``), where its figures
are pinned.  Counted, not timed, so a figure reads the same on any
machine.
"""

import collections
import dataclasses
import functools
import gc
import sys
import types
import typing

#: unmeasured rounds before the window: first-use paths, attribute caches
WARM_UPS = 3


class Calls:
    """The profile hook: ``call`` events per code object, and C calls.
    It stands in for a ``cProfile.Profile``: its ``enable`` and
    ``disable`` are C calls, so neither is a counted frame."""

    def __init__(self) -> None:
        self.frames: typing.Counter[types.CodeType] = collections.Counter()
        self.c_calls = 0
        self.enable = functools.partial(sys.setprofile, self)
        self.disable = functools.partial(sys.setprofile, sys.getprofile())

    def __call__(self, frame, event, _arg):
        if event == "call":
            self.frames[frame.f_code] += 1
        elif event == "c_call":
            self.c_calls += 1


#: ``COSTS``' row id -> the probe that measures it (``tests/test_costs.py``)
PROBES: typing.Dict[str, typing.Callable[[], "Cost"]] = {}


def probe(name: str, memo: bool = False):
    """Decorator: the function measures ``COSTS[name]``, once per
    process, so the table's test and the probe's own tests read one
    window.  ``memo``: its Python calls count on a ``repro.memo`` memo
    (CI's memo-off run skips that pin, never the heap entries)."""

    def register(measure):
        PROBES[name] = once = functools.lru_cache(maxsize=None)(measure)
        once.memo = memo
        return once

    return register


def watch_processes(env) -> typing.List[typing.Optional[str]]:
    """The names of the processes ``env`` starts from now on, in order
    (the list grows as they start).  The recorder costs one Python frame
    and one C call per start."""
    started: typing.List[typing.Optional[str]] = []
    start = env.process

    def recording_process(generator, name=None, inline=False):
        started.append(name)
        return start(generator, name, inline)

    env.process = recording_process
    return started


@dataclasses.dataclass
class Cost:
    """What a window counted; the first three are per round."""

    python_calls: float
    c_calls: float
    #: ``None`` where the probe counts calls only
    heap_entries: typing.Optional[float]
    #: names of the processes the measured rounds started
    started: typing.List[typing.Optional[str]]
    rounds: int
    #: ``call`` events per code object, over the whole window
    frames: typing.Counter[types.CodeType]

    def calls_to(self, function) -> float:
        """Frames of ``function`` entered or resumed per round."""
        return self.frames[function.__code__] / self.rounds


def _drive(env, step, rounds, prepare, profile):
    """Run ``rounds`` of ``step`` with ``profile`` installed; the heap
    entries they scheduled.  The rounds run in this frame, so its own
    resumptions (one per wake-up) are part of every figure."""
    before = env.kernel_counters()["sim.kernel.events_scheduled"]
    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        for _ in range(rounds):
            if prepare is not None:
                sys.setprofile(outer)
                prepare()
                sys.setprofile(profile)
            waited = step()
            if waited.__class__ is types.GeneratorType:
                yield from waited
            elif waited is not None:
                yield waited
    finally:
        sys.setprofile(outer)
    return env.kernel_counters()["sim.kernel.events_scheduled"] - before


def window(env, step, rounds, prepare=None) -> Cost:
    """The cost of ``rounds`` calls of ``step``, run by one process on
    ``env`` after ``WARM_UPS`` unmeasured ones.

    ``step()`` is one round: it returns an event to wait on, a
    generator to run with ``yield from``, or ``None``.  ``prepare``,
    when given, runs before every round outside the window.  Inside it
    gc is off: a collection would count the finalizers of earlier
    tests' garbage as frames.
    """
    env.run(until=env.process(_drive(env, step, WARM_UPS, prepare, sys.getprofile())))
    calls = Calls()
    driver = env.process(_drive(env, step, rounds, prepare, calls))
    started = watch_processes(env)
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        entries = env.run(until=driver)
    finally:
        if collecting:
            gc.enable()
    # less the recorder's frame and its append per start
    return Cost(
        (sum(calls.frames.values()) - len(started)) / rounds,
        (calls.c_calls - len(started)) / rounds,
        entries / rounds,
        started,
        rounds,
        calls.frames,
    )
