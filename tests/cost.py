"""What a piece of simulated code costs the host and the kernel, counted.

The host-cost budget tests measure through :func:`window`: Python frames
entered or resumed (``sys.setprofile`` ``call`` events), C calls, heap
entries and the processes started, per round.  Counted, not timed, so
a figure reads the same on any machine.
"""

import collections
import dataclasses
import gc
import sys
import types
import typing

#: unmeasured rounds before the window: first-use paths, attribute caches
WARM_UPS = 3


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
    heap_entries: float
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
    frames: typing.Counter[types.CodeType] = collections.Counter()
    c_calls = 0

    def profile(frame, event, _arg):
        nonlocal c_calls
        if event == "call":
            frames[frame.f_code] += 1
        elif event == "c_call":
            c_calls += 1

    driver = env.process(_drive(env, step, rounds, prepare, profile))
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
        (sum(frames.values()) - len(started)) / rounds,
        (c_calls - len(started)) / rounds,
        entries / rounds,
        started,
        rounds,
        frames,
    )
