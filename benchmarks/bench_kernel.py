"""Kernel dispatch throughput: today's kernel vs the seed kernel.

The simulator's cost model is events processed per wall second.  This
bench pins that number for two kernels across the event shapes the
repository actually generates, and records everything in
``BENCH_kernel.json``:

- **seed-replica** — a faithful in-process replica of the seed
  kernel's hot path (one ``heapq``, ``step()`` per event, dict-backed
  events).  Replicating it here keeps the ratio machine-independent:
  both sides run on the same interpreter in the same process.
- **kernel** — today's :class:`~repro.sim.kernel.Environment`: the same
  heap, slotted events, inlined ``Timeout`` scheduling and the direct
  drain.

Loads, from kernel-bound to workload-shaped:

- ``pure_timeout`` — a standing population of timeouts nobody waits
  on, drained to completion.  Pure queue + dispatch cost at depth; the
  absolute events/sec floor is asserted here.
- ``process_churn`` — concurrent generator processes each awaiting a
  chain of timeouts; dispatch plus the process-resume machinery.
- ``mixed_conditions`` — churn where every third wait is an
  ``AnyOf``/``AllOf`` fan-out (today's kernel only; a condition fires
  inside its deciding child, so only the timeouts are heap entries).
- ``million_client_zipf`` — the real scenario from
  :mod:`repro.workloads.scenarios` at reduced population, with the
  replay digest equality the determinism gate enforces.

The wall-clock ledger for whole workloads is ``benchmarks/e2e``; this
file isolates the kernel's own dispatch rate.

Set ``REPRO_BENCH_SMOKE=1`` for a reduced configuration (CI smoke).
"""

import gc
import heapq
import os
import random
import time

from repro.analysis.determinism import run_digest
from repro.sim.kernel import Environment
from repro.workloads.scenarios import build_million_client_zipf

from conftest import write_bench_results

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

PURE_EVENTS = 30_000 if SMOKE else 500_000
CHURN_PROCS = 200 if SMOKE else 2_000
CHURN_EVENTS_EACH = 20 if SMOKE else 100
MIXED_PROCS = 100 if SMOKE else 1_000
MIXED_ROUNDS_EACH = 10 if SMOKE else 40
MCLIENT_CLIENTS = 1_000 if SMOKE else 20_000
MCLIENT_CONTEXTS = 128 if SMOKE else 1_024
REPS = 2 if SMOKE else 5

#: Absolute events/sec floor for the kernel on pure_timeout —
#: deliberately far below any measurement (~250k/s locally at 500k
#: standing timers) so it only trips on catastrophic regressions, not
#: slow CI runners.
MIN_PURE_EVENTS_PER_SEC = 100_000.0

#: The artifact's ``wall_s``: wall time of the whole bench so far.
_BENCH_START = time.perf_counter()


# ----------------------------------------------------------------------
# The pre-PR kernel, replicated
# ----------------------------------------------------------------------
_PENDING = object()


class _SeedEvent:
    """Dict-backed event with the seed kernel's ``_process``."""

    def __init__(self, env):
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._exception = None
        self._defused = False

    def _process(self):
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)
        if self._exception is not None and not self._defused and not callbacks:
            raise self._exception


class _SeedTimeout(_SeedEvent):
    def __init__(self, env, delay, value=None):
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        super().__init__(env)
        self.delay = float(delay)
        self._value = value
        env._schedule(self, delay=self.delay)


class _SeedProcess(_SeedEvent):
    def __init__(self, env, generator, name=None):
        super().__init__(env)
        self.generator = generator
        self.name = name
        self._target = None
        start = _SeedEvent(env)
        start._value = None
        start.callbacks.append(self._resume)
        env._schedule(start)

    def _resume(self, event):
        exc = event._exception
        if exc is not None:
            event._defused = True
            self._step(throw=exc)
        else:
            self._step(send=event._value)

    def _step(self, send=None, throw=None):
        try:
            if throw is not None:
                target = self.generator.throw(throw)
            else:
                target = self.generator.send(send)
        except StopIteration as stop:
            self._value = stop.value
            self.env._schedule(self)
            return
        self._target = target
        target.callbacks.append(self._resume)


class SeedEnvironment:
    """The pre-overhaul kernel hot path: heapq + ``step()`` per event."""

    def __init__(self):
        self._now = 0.0
        self._queue = []
        self._eid = 0
        self.monitor = None

    @property
    def now(self):
        return self._now

    def timeout(self, delay, value=None):
        return _SeedTimeout(self, delay, value)

    def process(self, generator, name=None):
        return _SeedProcess(self, generator, name=name)

    def _schedule(self, event, delay=0.0):
        eid = self._eid
        self._eid = eid + 1
        heapq.heappush(self._queue, (self._now + delay, eid, event))

    def step(self):
        when, _, event = heapq.heappop(self._queue)
        self._now = when
        event._process()

    def run(self, until=None):
        queue = self._queue
        while queue:
            self.step()


# ----------------------------------------------------------------------
# Loads
# ----------------------------------------------------------------------
def _delay(rng):
    """The repository's event-delay shape: 30% immediate (cache hits,
    ``succeed()``), most of the rest sub-quarter-second (network and
    compute latencies), a far-future tail (TTLs, lease sweeps)."""
    r = rng.random()
    if r < 0.30:
        return 0.0
    if r < 0.895:
        return rng.random() * 250.0
    return rng.random() * 120_000.0


def load_pure_timeout(env):
    """A standing population of no-waiter timeouts.

    Shaped like the armed-timer regime this load exists to measure:
    mostly TTL/lease/refresh deferrals seconds-to-minutes out, a
    sub-second latency band, and a slice of immediates.
    """
    rng = random.Random(42)
    timeout = env.timeout
    for _ in range(PURE_EVENTS):
        r = rng.random()
        if r < 0.10:
            timeout(0.0)
        elif r < 0.40:
            timeout(rng.random() * 250.0)
        else:
            timeout(rng.random() * 120_000.0)
    return PURE_EVENTS


def load_process_churn(env):
    """Concurrent processes each yielding a chain of timeouts."""

    def client(seed):
        rng = random.Random(seed)
        for _ in range(CHURN_EVENTS_EACH):
            yield env.timeout(_delay(rng))

    for i in range(CHURN_PROCS):
        env.process(client(i))
    return CHURN_PROCS * CHURN_EVENTS_EACH


def load_mixed_conditions(env):
    """Churn where every third wait fans out through AnyOf/AllOf."""

    def client(seed):
        rng = random.Random(seed)
        for round_no in range(MIXED_ROUNDS_EACH):
            if round_no % 3 == 2:
                events = [env.timeout(_delay(rng)) for _ in range(3)]
                if round_no % 2:
                    yield env.any_of(events)
                else:
                    yield env.all_of(events)
            else:
                yield env.timeout(_delay(rng))

    for i in range(MIXED_PROCS):
        env.process(client(i))
    # 3 timeouts per fan-out round (the condition is not a heap
    # entry), 1 timeout otherwise.
    per_round = [1, 1, 3]
    events = sum(per_round[r % 3] for r in range(MIXED_ROUNDS_EACH))
    return MIXED_PROCS * events


def _measure(make_env, load):
    """Best-of-REPS events/sec for ``load`` on ``make_env()``.

    The collector is paused around the timed region: a drain allocates
    and frees hundreds of thousands of events, and collector pauses
    landing in one kernel's window but not another's are the dominant
    noise source on a small runner.
    """
    best = float("inf")
    events = 0
    for _ in range(REPS):
        env = make_env()
        events = load(env)
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            env.run()
            best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
    return {
        "events": events,
        "wall_s": best,
        "events_per_sec": events / best,
    }


# ----------------------------------------------------------------------
# Benches
# ----------------------------------------------------------------------
def test_kernel_dispatch_throughput():
    kernels = {"seed-replica": SeedEnvironment, "kernel": Environment}
    loads = {
        "pure_timeout": (load_pure_timeout, kernels),
        "process_churn": (load_process_churn, kernels),
        "mixed_conditions": (load_mixed_conditions, {"kernel": Environment}),
    }
    results = {}
    print()
    for load_name, (load, runnable) in loads.items():
        rows = {}
        for kernel_name, make_env in runnable.items():
            rows[kernel_name] = _measure(make_env, load)
        seed_rate = rows.get("seed-replica", {}).get("events_per_sec")
        for kernel_name, row in rows.items():
            row["vs_seed"] = (
                row["events_per_sec"] / seed_rate if seed_rate else None
            )
            ratio = f" ({row['vs_seed']:.2f}x seed)" if seed_rate else ""
            print(
                f"  {load_name:>16} {kernel_name:>12}: "
                f"{row['events_per_sec'] / 1000.0:8.0f}k ev/s{ratio}"
            )
        results[load_name] = rows
    write_bench_results(
        "kernel", "dispatch", results,
        wall_s=time.perf_counter() - _BENCH_START,
    )

    pure_rate = results["pure_timeout"]["kernel"]["events_per_sec"]
    assert pure_rate >= MIN_PURE_EVENTS_PER_SEC


def test_million_client_zipf_replays():
    """The headline scenario at population scale: events/sec, and the
    same digest from a second run."""
    best = float("inf")
    digests = set()
    for _ in range(REPS):  # >= 2: the digest check needs a second run
        start = time.perf_counter()
        env = build_million_client_zipf(
            seed=0,
            clients=MCLIENT_CLIENTS,
            contexts=MCLIENT_CONTEXTS,
        )
        best = min(best, time.perf_counter() - start)
        digests.add(run_digest(env))
    row = {
        "clients": MCLIENT_CLIENTS,
        "events": env._eid,
        "wall_s": best,
        "events_per_sec": env._eid / best,
        "requests": env.stats.counter("sim.mclient.requests").value,
        "cache_hits": env.stats.counter("sim.mclient.cache_hits").value,
        "digest_match": len(digests) == 1,
    }
    print(
        f"\n  million_client_zipf: "
        f"{row['events_per_sec'] / 1000.0:8.0f}k ev/s "
        f"({row['events']} events, {row['requests']} requests)"
    )
    write_bench_results(
        "kernel", "million_client_zipf", row,
        wall_s=time.perf_counter() - _BENCH_START,
    )
    assert len(digests) == 1, f"million_client_zipf replay diverged: {digests}"
