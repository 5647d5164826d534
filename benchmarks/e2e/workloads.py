"""The six reference workloads of the perf ledger.

Each ``prepare_*`` function is one workload's *set-up*: it materialises
the whole op stream from the seed with ``random.Random`` (names, think
times, wave membership, churn schedule), builds the world through the
repo's public builders, warms it, and returns a :class:`Prepared` whose
``measure()`` is the timed phase.  Op counts are fixed, never "run for N
wall seconds", so every simulated statistic repeats exactly for a seed.

The op streams deliberately do not reuse ``repro.workloads`` generators,
``drive_churn``, ``build_million_client_zipf`` or any ``@scenario``: an
edit under ``src/repro/workloads/`` must not silently change the load.
Only the world builders are shared.
"""

from __future__ import annotations

import bisect
import dataclasses
import random
import typing

from repro.core import Arrangement, HNSName
from repro.discovery import DiscoveryNsm
from repro.harness.calibration import DEFAULT_CALIBRATION
from repro.obs import SpanMetrics
from repro.resolution import (
    DEFAULT_RESOLUTION_POLICY,
    DiscoveryPolicy,
    FastPathPolicy,
    PolicySet,
    UpdatePolicy,
)
from repro.sim import Environment, UniformLatency
from repro.workloads import build_stack, build_testbed
from repro.workloads.adhoc import ADHOC_CONTEXT, build_adhoc_world


@dataclasses.dataclass
class Outcome:
    """What one measured phase produced."""

    #: simulated ms of every op that succeeded (failed ops are excluded
    #: here and counted in ``failed``)
    latencies: typing.List[float]
    #: ops that raised, timed out, or returned a wrong answer
    failed: int
    #: simulated duration of the measured phase
    sim_ms: float
    #: workload-specific layer metrics, by their catalogue name
    extra: typing.Dict[str, float] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class Prepared:
    env: Environment
    #: ops the measured phase attempts
    ops: int
    measure: typing.Callable[[], Outcome]
    #: run after the timed phase: scores ``outcome.extra`` and makes the
    #: whole-run output check (may add to ``outcome.failed``)
    finish: typing.Callable[[Outcome], bool] = lambda outcome: True


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    #: ops per repetition at ``--scale 1``, sized on a 2-core host for a
    #: measured phase of roughly 2 s
    ops: int
    prepare: typing.Callable[[int, int], Prepared]


def _zipf_picker(
    rng: random.Random, size: int, s: float
) -> typing.Callable[[], int]:
    """Draws ranks 0..size-1 with weight (rank+1)**-s."""
    cums: typing.List[float] = []
    total = 0.0
    for rank in range(1, size + 1):
        total += rank ** -s
        cums.append(total)
    return lambda: bisect.bisect_left(cums, rng.random() * total)


def _drive(env: Environment, processes: typing.Sequence[typing.Generator]) -> float:
    """Run the generators as concurrent simulated processes to the end;
    returns the simulated ms that took."""
    start = env.now
    env.run(until=env.all_of([env.process(gen) for gen in processes]))
    return env.now - start


# ----------------------------------------------------------------------
# 1 + 2. cold_import / traced_import
# ----------------------------------------------------------------------
#: (name service, service, context, individual name, suite, port)
_IMPORT_TARGETS = (
    ("BIND-cs", "DesiredService", "BIND-cs", "fiji.cs.washington.edu", "sunrpc", 9999),
    ("CH-hcs", "PrintService", "CH-hcs", "dlion:hcs:uw", "courier", 6001),
)
IMPORT_THINK_MS = 50.0


def _prepare_import(seed: int, ops: int, traced: bool) -> Prepared:
    # Half the imports go to each name service: each pair of ops visits
    # both, in seeded order, so a shorter stream is a prefix of a longer
    # one.  Every import follows a full cache flush, so what came before
    # it never changes what it costs.
    rng = random.Random(seed)
    stream: typing.List[typing.Tuple[float, int]] = []
    for _ in range(0, ops, 2):
        first = rng.randrange(2)
        for which in (first, 1 - first):
            stream.append((rng.expovariate(1.0 / IMPORT_THINK_MS), which))
    del stream[ops:]
    testbed = build_testbed(seed=seed)
    env = testbed.env
    # A lightly loaded Ethernet is not a constant: +-20 % seeded jitter on
    # the wire keeps Table 3.1's means and makes every simulated
    # statistic, not only the order of ops, depend on the seed.
    wire_ms = testbed.calibration.wire_base_ms
    testbed.internet.segments[0].latency = UniformLatency(
        0.8 * wire_ms, 1.2 * wire_ms, testbed.calibration.wire_per_byte_ms
    )
    stacks = [
        build_stack(testbed, Arrangement.ALL_LOCAL, name_service=target[0])
        for target in _IMPORT_TARGETS
    ]
    names = [HNSName(target[2], target[3]) for target in _IMPORT_TARGETS]
    if traced:
        env.obs.enable(metrics=SpanMetrics(env))
    outcome = Outcome([], 0, 0.0)

    def client() -> typing.Generator:
        for think_ms, which in stream:
            yield env.timeout(think_ms)
            stack = stacks[which]
            _, service, _, _, suite, port = _IMPORT_TARGETS[which]
            stack.flush_all_caches()
            started = env.now
            try:
                binding = yield from stack.importer.import_binding(
                    service, names[which]
                )
            except Exception:
                outcome.failed += 1
                continue
            if (binding.suite, binding.endpoint.port, binding.program) != (
                suite, port, service,
            ):
                outcome.failed += 1
                continue
            outcome.latencies.append(env.now - started)

    def measure() -> Outcome:
        outcome.sim_ms = _drive(env, [client()])
        return outcome

    return Prepared(env, ops, measure)


def prepare_cold_import(seed: int, ops: int) -> Prepared:
    return _prepare_import(seed, ops, traced=False)


#: ops of the traced stream replayed untraced by ``traced_import``'s check
REPLAY_OPS = 40


def prepare_traced_import(seed: int, ops: int) -> Prepared:
    prepared = _prepare_import(seed, ops, traced=True)

    def zero_simulated_cost(outcome: Outcome) -> bool:
        # Tracing must cost no simulated time: the head of the stream,
        # replayed untraced on a fresh world, has bit-identical latencies.
        replay = _prepare_import(seed, min(ops, REPLAY_OPS), traced=False).measure()
        return replay.latencies == outcome.latencies[: len(replay.latencies)]

    prepared.finish = zero_simulated_cost
    return prepared


# ----------------------------------------------------------------------
# 3. warm_zipf
# ----------------------------------------------------------------------
ZIPF_CLIENTS = 16
ZIPF_CONTEXTS = 256
ZIPF_THINK_MS = 400.0
ZIPF_META_TTL_MS = 30_000.0
EXPECTED_NSM = "HRPCBinding-BIND-cs"


def prepare_warm_zipf(seed: int, ops: int) -> Prepared:
    rng = random.Random(seed)
    pick = _zipf_picker(rng, ZIPF_CONTEXTS, 0.9)
    per_client = ops // ZIPF_CLIENTS
    streams = [
        [(rng.expovariate(1.0 / ZIPF_THINK_MS), pick()) for _ in range(per_client)]
        for _ in range(ZIPF_CLIENTS)
    ]
    calibration = dataclasses.replace(
        DEFAULT_CALIBRATION, meta_ttl_ms=ZIPF_META_TTL_MS
    )
    testbed = build_testbed(seed=seed, calibration=calibration)
    env = testbed.env
    hns = testbed.make_hns(
        testbed.client,
        policies=PolicySet(
            resolution=DEFAULT_RESOLUTION_POLICY, fast_path=FastPathPolicy()
        ),
    )
    admin = testbed.make_metastore(testbed.meta_host)
    names = [
        HNSName(f"zipf{i:03d}", "fiji.cs.washington.edu")
        for i in range(ZIPF_CONTEXTS)
    ]

    def warm() -> typing.Generator:
        for name in names:
            yield from admin.register_context(name.context, "BIND-cs")
        for name in names:
            yield from hns.find_nsm(name, "HRPCBinding")

    env.run(until=env.process(warm()))
    outcome = Outcome([], 0, 0.0)

    def client(stream: typing.List[typing.Tuple[float, int]]) -> typing.Generator:
        for think_ms, which in stream:
            yield env.timeout(think_ms)
            started = env.now
            try:
                binding = yield from hns.find_nsm(names[which], "HRPCBinding")
            except Exception:
                outcome.failed += 1
                continue
            if binding.metadata.get("nsm") != EXPECTED_NSM:
                outcome.failed += 1
                continue
            outcome.latencies.append(env.now - started)

    def measure() -> Outcome:
        outcome.sim_ms = _drive(env, [client(stream) for stream in streams])
        return outcome

    return Prepared(env, per_client * ZIPF_CLIENTS, measure)


# ----------------------------------------------------------------------
# 4. update_storm
# ----------------------------------------------------------------------
STORM_CONTEXTS = 256
STORM_WAVE_WRITES = 16
STORM_WAVE_GAP_MS = 2_000.0
STORM_READERS = 4
STORM_READ_GAP_MS = 20.0
#: ops per wave: 16 writes + the reads four readers issue in one wave
#: gap (a read takes ~1 sim ms on top of its 20 ms mean gap)
STORM_READS_PER_WAVE = 90
STORM_OPS_PER_WAVE = STORM_WAVE_WRITES + STORM_READERS * STORM_READS_PER_WAVE
STORM_QUIESCE_MS = 5_000.0


def prepare_update_storm(seed: int, ops: int) -> Prepared:
    rng = random.Random(seed)
    waves = max(1, ops // STORM_OPS_PER_WAVE)
    # Distinct contexts within a wave: no two writes of one batch race
    # for the same owner, so "last acknowledged version" is unambiguous.
    wave_contexts = [
        rng.sample(range(STORM_CONTEXTS), STORM_WAVE_WRITES) for _ in range(waves)
    ]
    pick = _zipf_picker(rng, STORM_CONTEXTS, 0.9)
    read_streams = [
        [
            (rng.expovariate(1.0 / STORM_READ_GAP_MS), pick())
            for _ in range(waves * STORM_READS_PER_WAVE)
        ]
        for _ in range(STORM_READERS)
    ]
    update = UpdatePolicy(invalidation="notify")
    testbed = build_testbed(seed=seed, update_policy=update)
    env = testbed.env
    writer = testbed.make_metastore(
        testbed.agent_host,
        policies=PolicySet(resolution=DEFAULT_RESOLUTION_POLICY, update=update),
    )
    readers = [testbed.make_metastore(testbed.client) for _ in range(STORM_READERS)]
    contexts = [f"storm{i:03d}" for i in range(STORM_CONTEXTS)]
    #: newest version whose write has been acknowledged, per context
    acked = [0] * STORM_CONTEXTS

    def warm() -> typing.Generator:
        for context in contexts:
            yield from writer.register_context(context, "v0")
        for reader in readers:
            for context in contexts:
                yield from reader.context_to_name_service(context)
            yield from reader.subscribe_invalidation()

    env.run(until=env.process(warm()))
    outcome = Outcome([], 0, 0.0)
    write_ms: typing.List[float] = []
    read_ms: typing.List[float] = []
    stale = [0]

    def write_one(which: int, version: int) -> typing.Generator:
        started = env.now
        try:
            yield from writer.register_context(contexts[which], f"v{version}")
        except Exception:
            outcome.failed += 1
            return
        acked[which] = version
        write_ms.append(env.now - started)

    def write_waves() -> typing.Generator:
        for index, members in enumerate(wave_contexts):
            yield env.timeout(STORM_WAVE_GAP_MS)
            yield env.all_of(
                [env.process(write_one(which, index + 1)) for which in members]
            )

    def read_loop(reader, stream) -> typing.Generator:
        for gap_ms, which in stream:
            yield env.timeout(gap_ms)
            expected = acked[which]
            started = env.now
            try:
                answer = yield from reader.context_to_name_service(contexts[which])
            except Exception:
                outcome.failed += 1
                continue
            if int(answer[1:]) < expected:
                stale[0] += 1
            read_ms.append(env.now - started)

    def read_back() -> typing.Generator:
        yield env.timeout(STORM_QUIESCE_MS)
        for which, context in enumerate(contexts):
            for reader in readers:
                answer = yield from reader.context_to_name_service(context)
                if answer != f"v{acked[which]}":
                    outcome.failed += 1
                    break

    def measure() -> Outcome:
        outcome.sim_ms = _drive(
            env,
            [write_waves()]
            + [read_loop(r, s) for r, s in zip(readers, read_streams)],
        )
        return outcome

    def finish(outcome: Outcome) -> bool:
        outcome.latencies = write_ms + read_ms
        outcome.extra = {
            "core.write_sim_ms_p50": percentile(write_ms, 50),
            "core.read_sim_ms_p99": percentile(read_ms, 99),
            "core.stale_read_share": stale[0] / max(1, len(read_ms)),
        }
        # After quiescence every reader must see the last acknowledged
        # version of every context; each one that does not is a failed op.
        before = outcome.failed
        env.run(until=env.process(read_back()))
        return outcome.failed == before

    return Prepared(env, waves * STORM_OPS_PER_WAVE, measure, finish)


# ----------------------------------------------------------------------
# 5. adhoc_churn
# ----------------------------------------------------------------------
CHURN_HOSTS = 12
CHURN_OWNERS = 6
CHURN_QUERY_GAP_MS = (90.0, 110.0)
CHURN_INTERVAL_MS = 2_500.0
CHURN_DOWN_MS = 2_500.0
#: The re-query wait is drawn per seed: the workload's p99 is one such
#: wait, and a fixed one would read the same to the last bit on every seed.
CHURN_BROADCAST_WAIT_MS = (57.0, 63.0)


def prepare_adhoc_churn(seed: int, ops: int) -> Prepared:
    rng = random.Random(seed)
    gaps = [rng.uniform(*CHURN_QUERY_GAP_MS) for _ in range(max(1, ops // CHURN_OWNERS))]
    duration_ms = sum(gaps)
    # (gap before the crash, victim owner index); one owner down at a
    # time, each silently (no retraction reaches the segment).
    schedule: typing.List[typing.Tuple[float, int]] = []
    at = 0.0
    while True:
        gap = CHURN_INTERVAL_MS * (0.75 + 0.5 * rng.random())
        at += gap + CHURN_DOWN_MS
        if at >= duration_ms:
            break
        schedule.append((gap, rng.randrange(CHURN_OWNERS)))
    policy = DiscoveryPolicy(
        beacon_period_ms=500.0,
        entry_ttl_ms=10_000.0,
        watchdog_multiplier=3.0,
        broadcast_wait_ms=rng.uniform(*CHURN_BROADCAST_WAIT_MS),
    )
    world = build_adhoc_world(seed, policy=policy, host_count=CHURN_HOSTS)
    env = world.env
    names = [f"svc-{i}" for i in range(CHURN_OWNERS)]
    for i, name in enumerate(names):
        world.beacons[1 + i].announce(name, 9_000 + i)
    owner_of = [world.hosts[1 + i].name for i in range(CHURN_OWNERS)]
    hns_names = [HNSName(ADHOC_CONTEXT, name) for name in names]
    nsm = DiscoveryNsm(world.beacons[0])
    # Warm every view: a few beacon periods is plenty.
    env.run(until=env.timeout(3.0 * policy.beacon_period_ms + 100.0))
    outcome = Outcome([], 0, 0.0)
    #: per owner: [vanish_at, recover_at] spans
    outages: typing.List[typing.List[typing.List[float]]] = [
        [] for _ in range(CHURN_OWNERS)
    ]
    #: (started, owner index, served owner or None)
    log: typing.List[typing.Tuple[float, int, typing.Optional[str]]] = []

    def churner() -> typing.Generator:
        for gap_ms, victim in schedule:
            yield env.timeout(gap_ms)
            host, beacon = world.hosts[1 + victim], world.beacons[1 + victim]
            span = [env.now, float("inf")]
            outages[victim].append(span)
            host.crash()
            yield env.timeout(CHURN_DOWN_MS)
            host.restart()
            beacon.restart()
            span[1] = env.now

    def querier() -> typing.Generator:
        for gap_ms in gaps:
            for which, hns_name in enumerate(hns_names):
                started = env.now
                try:
                    result = yield from nsm.query(hns_name)
                except LookupError:
                    served = None
                except Exception:
                    outcome.failed += 1
                    continue
                else:
                    served = str(result.value["owner"])
                    if served != owner_of[which]:
                        outcome.failed += 1
                        continue
                log.append((started, which, served))
                outcome.latencies.append(env.now - started)
            yield env.timeout(gap_ms)

    def measure() -> Outcome:
        outcome.sim_ms = _drive(env, [churner(), querier()])
        return outcome

    def finish(outcome: Outcome) -> bool:
        stale = live_miss = 0
        staleness: typing.List[float] = []
        for started, which, served in log:
            down = any(a <= started < b for a, b in outages[which])
            if down and served is not None:
                stale += 1
            elif not down and served is None:
                live_miss += 1
        for which, spans in enumerate(outages):
            for vanish_at, recover_at in spans:
                window = [
                    q for q in log if q[1] == which and vanish_at <= q[0] < recover_at
                ]
                fresh = [q for q in window if q[2] is None]
                if fresh:
                    staleness.append(fresh[0][0] - vanish_at)
                elif window:
                    staleness.append(recover_at - vanish_at)
        outcome.extra = {
            "discovery.stale_serve_share": stale / max(1, len(log)),
            "discovery.live_miss_share": live_miss / max(1, len(log)),
            "discovery.staleness_after_vanish_ms": (
                sum(staleness) / len(staleness) if staleness else 0.0
            ),
        }
        return True

    return Prepared(env, len(gaps) * CHURN_OWNERS, measure, finish)


# ----------------------------------------------------------------------
# 6. mclient_zipf
# ----------------------------------------------------------------------
MCLIENT_CONTEXTS = 10_000
MCLIENT_INTERARRIVAL_MS = 0.05
MCLIENT_TTL_MS = 30_000.0
MCLIENT_LOOKUP_MS = (5.0, 40.0)
MCLIENT_LEASE_MS = 2_000.0


def prepare_mclient_zipf(seed: int, ops: int) -> Prepared:
    """The ``million_client_zipf`` model re-stated against ``repro.sim``,
    plus one no-waiter lease timer per completed request — what leases,
    refresh-ahead and watchdog deadlines arm in the real stack — so tens
    of thousands of timers stand in the queue while it is pushed and
    popped at depth.  Open loop in simulated time."""
    rng = random.Random(seed)
    pick = _zipf_picker(rng, MCLIENT_CONTEXTS, 1.1)
    low, high = MCLIENT_LOOKUP_MS
    # (inter-arrival, context, lookup time if it misses) per client
    arrivals = [
        (
            rng.expovariate(1.0 / MCLIENT_INTERARRIVAL_MS),
            pick(),
            rng.uniform(low, high),
        )
        for _ in range(ops)
    ]
    env = Environment(seed)
    cache: typing.Dict[int, float] = {}
    outcome = Outcome([], 0, 0.0)
    latencies = outcome.latencies
    done = env.event()

    def client(context: int, lookup_ms: float) -> typing.Generator:
        started = env.now
        expiry = cache.get(context)
        if expiry is not None and expiry > started:
            yield env.timeout(0.0)
        else:
            yield env.timeout(lookup_ms)
            cache[context] = env.now + MCLIENT_TTL_MS
        latencies.append(env.now - started)
        env.timeout(MCLIENT_LEASE_MS)  # armed, never awaited
        if len(latencies) == ops:
            done.succeed(None)

    def arrive() -> typing.Generator:
        for gap_ms, context, lookup_ms in arrivals:
            yield env.timeout(gap_ms)
            env.process(client(context, lookup_ms))
        yield done

    def measure() -> Outcome:
        outcome.sim_ms = _drive(env, [arrive()])
        return outcome

    return Prepared(env, ops, measure, lambda outcome: len(latencies) == ops)


# ----------------------------------------------------------------------
def percentile(values: typing.Sequence[float], pct: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = -(-len(ordered) * pct // 100)  # ceil
    return ordered[int(max(1, rank)) - 1]


#: layer metrics only some workloads can measure (0.0 on the others)
EXTRA_METRICS = (
    "core.write_sim_ms_p50",
    "core.read_sim_ms_p99",
    "core.stale_read_share",
    "discovery.stale_serve_share",
    "discovery.live_miss_share",
    "discovery.staleness_after_vanish_ms",
)

WORKLOADS: typing.Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("cold_import", 1_000, prepare_cold_import),
        Workload("traced_import", 700, prepare_traced_import),
        Workload("warm_zipf", 4_800, prepare_warm_zipf),
        Workload("update_storm", 45_120, prepare_update_storm),
        Workload("adhoc_churn", 6_000, prepare_adhoc_churn),
        Workload("mclient_zipf", 45_000, prepare_mclient_zipf),
    )
}
