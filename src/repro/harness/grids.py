"""The registered ablation grids: knobs, runners, and the grid registry.

Each grid pairs a knob registry (the frozen
:class:`~repro.resolution.PolicySet` axes plus scenario parameters like
meta TTL, wire drop, and primary health) with its runner; each knob
names a variant once, beside the value its runner receives.  ``python -m
repro.cli bench <grid>`` is the one way a grid runs,
``BENCH_ablation_<grid>.json`` the one artifact it writes, and
``tests/harness/test_grids.py`` where each grid's claims are asserted.

Every runner is deterministic given ``(knobs, seed, smoke)``: it
builds a fresh :class:`~repro.sim.Environment`, drives the scenario in
simulated time, and reports metrics plus the run digest the CI gate
pins.  No runner reads the host clock — wall time is measured by the
engine around the runner, not inside it.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.analysis.determinism import run_digest
from repro.bind.server import BindServer as _BindServer
from repro.core.admin import HnsAdministrator
from repro.core.colocation import Arrangement
from repro.core.errors import ContextNotFound
from repro.core.names import HNSName
from repro.harness.ablation import GridDef, Knob, RunOutput
from repro.harness.calibration import DEFAULT_CALIBRATION
from repro.resolution import (
    DEFAULT_RESOLUTION_POLICY,
    DiscoveryPolicy,
    FastPathPolicy,
    PolicySet,
    ReplicaPolicy,
    ResolutionPolicy,
    UpdatePolicy,
)
from repro.sim.kernel import Environment, run_process

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.process import ProcessGenerator

#: The name every fast-path workload resolves (the paper's testbed host).
FIJI = HNSName("BIND-cs", "fiji.cs.washington.edu")


def percentile(samples: typing.Sequence[float], p: float) -> typing.Optional[float]:
    """Linear-interpolated percentile of a sample list.

    ``None`` for an empty sample: artifacts are strict JSON, where a
    missing measurement is ``null`` and NaN does not exist.
    """
    if not samples:
        return None
    ordered = sorted(samples)
    k = (len(ordered) - 1) * (p / 100.0)
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def _idle(env: Environment, ms: float) -> None:
    """Advance simulated time by ``ms`` alongside whatever is scheduled."""

    def sleeper() -> "ProcessGenerator":
        yield env.timeout(ms)

    run_process(env, sleeper())


# ----------------------------------------------------------------------
# fast_path grid
# ----------------------------------------------------------------------
def run_fast_path(
    knobs: typing.Mapping[str, typing.Any], seed: int, smoke: bool
) -> RunOutput:
    """Zipf closed-loop FindNSM workload under one knob assignment.

    Concurrent clients resolve Zipf-distributed contexts against a
    short meta TTL; refresh-ahead keeps the tail at cache-hit cost,
    batching cuts meta queries per find, a herd of clients gives
    coalescing concurrent misses to merge, and the drop knob degrades
    the wire so availability becomes a real metric.
    """
    from repro.workloads.scenarios import BIND_NS, build_testbed

    clients = knobs["load"](smoke)
    contexts = 16 if smoke else 32
    duration_ms = 20_000.0 if smoke else 90_000.0
    think_mean_ms = 150.0
    zipf_s = 0.9
    calibration = dataclasses.replace(
        DEFAULT_CALIBRATION, meta_ttl_ms=knobs["meta_ttl"](smoke)
    )
    testbed = build_testbed(seed=seed, calibration=calibration)
    env = testbed.env
    hns = testbed.make_hns(
        testbed.client,
        policies=PolicySet(
            resolution=DEFAULT_RESOLUTION_POLICY, fast_path=knobs["fast_path"]
        ),
    )
    admin = HnsAdministrator(testbed.make_metastore(testbed.meta_host))

    def register_contexts() -> "ProcessGenerator":
        for i in range(contexts):
            yield from admin.register_context(f"zipf-ctx-{i}", BIND_NS)

    run_process(env, register_contexts())
    names = [
        HNSName(f"zipf-ctx-{i}", "fiji.cs.washington.edu")
        for i in range(contexts)
    ]
    weights = [1.0 / (i + 1) ** zipf_s for i in range(contexts)]

    def warm() -> "ProcessGenerator":
        for name in names:
            yield from hns.find_nsm(name, "HRPCBinding")

    run_process(env, warm())
    # Degrade the wire only after warm-up so every knob assignment
    # measures the same steady state.
    testbed.internet.segments[0].set_loss(knobs["drop"])
    start_queries = env.stats.counter("bind.meta-bind.queries").value
    rng = env.rng.stream("harness.zipf")
    latencies: typing.List[float] = []
    failures = [0]
    deadline = env.now + duration_ms

    def client_loop() -> "ProcessGenerator":
        while env.now < deadline:
            name = rng.choices(names, weights)[0]
            t0 = env.now
            try:
                yield from hns.find_nsm(name, "HRPCBinding")
            except Exception:
                # Exhausted retries on a degraded wire: an availability
                # miss, not a harness error.
                failures[0] += 1
            else:
                latencies.append(env.now - t0)
            yield env.timeout(rng.expovariate(1.0 / think_mean_ms))

    for _ in range(clients):
        env.process(client_loop())
    _idle(env, duration_ms + 30_000.0)
    queries = env.stats.counter("bind.meta-bind.queries").value - start_queries
    attempts = len(latencies) + failures[0]
    env.stats.counter("harness.fast_path.finds").increment(len(latencies))
    metrics = {
        "finds": float(len(latencies)),
        "p50_ms": percentile(latencies, 50),
        "p99_ms": percentile(latencies, 99),
        "meta_queries_per_find": queries / max(1, len(latencies)),
        "availability": len(latencies) / max(1, attempts),
    }
    return RunOutput(metrics=metrics, digest=run_digest(env), sim_ms=env.now)


FAST_PATH_GRID = GridDef(
    name="fast_path",
    knobs=(
        # Every FindNSM mechanism off by itself, plus the endpoints.
        Knob(
            "fast_path",
            baseline=("full", FastPathPolicy()),
            variants=(
                ("no_coalescing", FastPathPolicy(coalesce=False)),
                ("no_refresh", FastPathPolicy(refresh_ahead_fraction=0.0)),
                ("no_batching", FastPathPolicy(batch_meta_lookups=False)),
                ("disabled", FastPathPolicy.disabled()),
            ),
        ),
        # The ablation TTL (by smoke) vs a TTL long enough that every
        # post-warm lookup is a cache hit (u32 wire field caps "forever").
        Knob(
            "meta_ttl",
            baseline=("short", lambda smoke: 7_000.0 if smoke else 30_000.0),
            variants=(("all_hit", lambda smoke: 3_000_000_000.0),),
        ),
        # Wire loss on the testbed segment.
        Knob("drop", baseline=("none", 0.0), variants=(("p10", 0.10),)),
        # Closed-loop clients (by smoke), or a herd whose misses overlap.
        Knob(
            "load",
            baseline=("light", lambda smoke: 8 if smoke else 16),
            variants=(("herd", lambda smoke: 64),),
        ),
    ),
    runner=run_fast_path,
    seed=33,
    extras=(
        # The steady-state reference the tail claims are compared against:
        # prototype resolution against a never-expiring cache.
        (
            "reference",
            (("fast_path", "disabled"), ("meta_ttl", "all_hit")),
        ),
        # Coalescing under the load it exists for.
        ("no_coalescing@herd", (("fast_path", "no_coalescing"), ("load", "herd"))),
    ),
)


# ----------------------------------------------------------------------
# replica_scheduling grid
# ----------------------------------------------------------------------
def run_replica_scheduling(
    knobs: typing.Mapping[str, typing.Any], seed: int, smoke: bool
) -> RunOutput:
    """Closed-loop lookups against a three-replica set under one fault.

    The ``fault`` knob: the primary (the ordered walk's first replica)
    stalls 15 % of its datagrams past the transport timeout, answers
    30 ms slower than the others, or is down from the tenth to the
    seventieth percent of the lookups; or every replica stalls 5 % of
    its datagrams; or nothing goes wrong.  The ``replica`` knob swaps
    the replica-aware exchange against the prototype's ordered
    failover.  ``legs_per_lookup`` counts the requests the servers
    received, so both exchanges count alike.
    """
    from repro.bind.resolver import BindResolver
    from repro.bind.rr import ResourceRecord, RRType
    from repro.bind.zone import Zone
    from repro.net.errors import NetworkError
    from repro.net.internet import Internetwork
    from repro.net.transport import DatagramTransport
    from repro.sim.latency import ConstantLatency

    lookups = 120 if smoke else 500
    cal = DEFAULT_CALIBRATION
    fault = knobs["fault"]

    env = Environment(seed=seed)
    net = Internetwork(env)
    seg = net.add_segment(
        latency=ConstantLatency(cal.wire_base_ms, cal.wire_per_byte_ms)
    )
    client = net.add_host("client", seg)
    hosts = [net.add_host(f"ns{i}", seg) for i in range(3)]

    def make_zone() -> "Zone":
        zone = Zone("hns")
        zone.add(
            ResourceRecord.text_record(
                "a.ctx.hns", "ns=one", rtype=RRType.UNSPEC, ttl=3_600_000
            )
        )
        return zone

    servers = [
        _FlakyBindServer(
            host,
            zones=[make_zone()],
            lookup_cost_ms=cal.meta_bind_lookup_ms
            + (30.0 if fault == "slow_primary" and i == 0 else 0.0),
            stall_probability=(
                0.05 if fault == "stall_all"
                else 0.15 if fault == "stall_primary" and i == 0
                else 0.0
            ),
        )
        for i, host in enumerate(hosts)
    ]
    primary_ep, *secondary_eps = [server.listen() for server in servers]
    udp = DatagramTransport(net, retries=0, retry_timeout_ms=100)
    resolver = BindResolver(
        client,
        udp,
        primary_ep,
        secondaries=secondary_eps,
        policies=PolicySet(replica=knobs["replica"]),
        name="harness",
    )
    crash_at, restart_at = (
        (lookups // 10, lookups * 7 // 10) if fault == "crash_primary" else (-1, -1)
    )
    latencies: typing.List[float] = []

    def client_loop() -> "ProcessGenerator":
        for i in range(lookups):
            if i == crash_at:
                hosts[0].crash()
            elif i == restart_at:
                hosts[0].restart()
            start = env.now
            try:
                yield from resolver.lookup("a.ctx.hns", RRType.UNSPEC)
            except NetworkError:
                pass  # every replica failed: an availability miss
            else:
                latencies.append(env.now - start)
            yield env.timeout(5.0)

    run_process(env, client_loop())
    _idle(env, 2_000.0)  # drain hedge-loser legs and stalled datagrams
    counters = env.stats.counters()
    metrics = {
        "lookups": float(lookups),
        "p50_ms": percentile(latencies, 50),
        "p99_ms": percentile(latencies, 99),
        "max_ms": max(latencies, default=None),
        "hedges": float(counters.get("bind.harness.hedges", 0)),
        "failovers": float(counters.get("bind.harness.failovers", 0)),
        "legs_per_lookup": sum(
            counters.get(f"bind.{server.name}.requests", 0) for server in servers
        ) / lookups,
        "availability": len(latencies) / lookups,
    }
    return RunOutput(metrics=metrics, digest=run_digest(env), sim_ms=env.now)


#: the replica grid's faults (see run_replica_scheduling), baseline first
REPLICA_FAULTS = ("stall_primary", "healthy", "slow_primary", "crash_primary", "stall_all")

REPLICA_GRID = GridDef(
    name="replica_scheduling",
    knobs=(
        # The replica-aware exchange vs the prototype's ordered failover.
        Knob(
            "replica",
            baseline=("hedged", ReplicaPolicy()),
            variants=(("ordered", ReplicaPolicy.disabled()),),
        ),
        Knob(
            "fault",
            baseline=(REPLICA_FAULTS[0], REPLICA_FAULTS[0]),
            variants=tuple((fault, fault) for fault in REPLICA_FAULTS[1:]),
        ),
    ),
    runner=run_replica_scheduling,
    seed=61,
    # The ordered walk under each fault, beside the hedged one-off.
    extras=tuple(
        (f"ordered@{fault}", (("replica", "ordered"), ("fault", fault)))
        for fault in REPLICA_FAULTS[1:]
    ),
)


# ----------------------------------------------------------------------
# update_path grid
# ----------------------------------------------------------------------
def run_update_path(
    knobs: typing.Mapping[str, typing.Any], seed: int, smoke: bool
) -> RunOutput:
    """Staleness window after a rebinding, plus a registration storm.

    A writer re-registers a context under a fleet of warm readers (the
    ``invalidation`` knob decides how fast they notice), then a
    separate storm phase measures meta round trips for an N-writer
    registration burst with and without the batched pipeline (the
    ``batch`` knob).
    """
    from repro.workloads.scenarios import build_testbed

    readers = 4 if smoke else 8
    poll_ms = 250.0
    storm_size = 16 if smoke else 32
    update = dataclasses.replace(knobs["invalidation"], batch=knobs["batch"])
    cal_fast_ttl = dataclasses.replace(
        DEFAULT_CALIBRATION, meta_ttl_ms=60_000.0
    )

    # Phase 1: the staleness window.
    testbed = build_testbed(
        seed=seed, calibration=cal_fast_ttl, update_policy=update
    )
    env = testbed.env
    writer = testbed.make_metastore(
        testbed.agent_host,
        policies=PolicySet(resolution=DEFAULT_RESOLUTION_POLICY, update=update),
    )
    reader_stores = [
        testbed.make_metastore(testbed.client) for _ in range(readers)
    ]
    observed: typing.List[typing.Optional[float]] = [None] * readers
    change_at: typing.Dict[str, float] = {}

    def poller(index: int) -> "ProcessGenerator":
        reader = reader_stores[index]
        while True:
            ns = yield from reader.context_to_name_service("storm")
            if ns == "ns-v2":
                observed[index] = env.now - change_at["t"]
                return
            yield env.timeout(poll_ms)

    def refresh(reader: object) -> "ProcessGenerator":
        ns = yield from reader.context_to_name_service("storm")  # type: ignore[attr-defined]
        assert ns == "ns-v1"

    def drive() -> "ProcessGenerator":
        yield from writer.register_context("storm", "ns-v1")
        for reader in reader_stores:
            yield from refresh(reader)
            if update.notify:
                yield from reader.subscribe_invalidation()
        yield env.timeout(max(0.0, 9_500.0 - env.now))
        # Refresh just before the rebinding so lease-capped TTLs are
        # live when the write lands; pure-TTL refreshes are cache hits.
        yield env.all_of([env.process(refresh(r)) for r in reader_stores])
        yield env.timeout(250.0)
        change_at["t"] = env.now
        yield from writer.register_context("storm", "ns-v2")
        pollers = [env.process(poller(i)) for i in range(readers)]
        yield env.all_of(pollers)

    run_process(env, drive())
    staleness = [s for s in observed if s is not None]
    assert len(staleness) == readers

    # Phase 2: the registration storm, in a fresh testbed so phase-1
    # cache state cannot leak into the round-trip count.
    storm_testbed = build_testbed(seed=seed + 1, update_policy=update)
    storm_env = storm_testbed.env
    # The prototype's single-op updates queue long enough at the server
    # to blow the transport's retry timer; both arms get the same
    # patient one so round trips stay the metric, not retransmits.
    storm_testbed.udp.retry_timeout_ms = 60_000.0
    store = storm_testbed.make_metastore(
        storm_testbed.agent_host,
        policies=PolicySet(resolution=DEFAULT_RESOLUTION_POLICY, update=update),
    )
    before = storm_env.stats.counters().get("net.udp.delivered", 0)
    storm_started = storm_env.now

    def storm() -> "ProcessGenerator":
        writers = [
            storm_env.process(store.register_context(f"ctx{i}", "BIND-cs"))
            for i in range(storm_size)
        ]
        yield storm_env.all_of(writers)

    run_process(storm_env, storm())
    storm_counters = storm_env.stats.counters()
    metrics = {
        "staleness_ms_max": max(staleness),
        "staleness_ms_mean": sum(staleness) / len(staleness),
        "storm_ops": float(storm_size),
        "storm_round_trips": float(
            storm_counters.get("net.udp.delivered", 0) - before
        ),
        "storm_ms": storm_env.now - storm_started,
    }
    digest = f"{run_digest(env)}+{run_digest(storm_env)}"
    return RunOutput(metrics=metrics, digest=digest, sim_ms=env.now)


UPDATE_GRID = GridDef(
    name="update_path",
    knobs=(
        # How caches learn about a rebinding.
        Knob(
            "invalidation",
            baseline=("notify", UpdatePolicy(invalidation="notify")),
            variants=(
                ("lease", UpdatePolicy(invalidation="lease", lease_ms=5_000.0)),
                ("ttl", UpdatePolicy(invalidation="ttl")),
            ),
        ),
        Knob("batch", baseline=("on", True), variants=(("off", False),)),
    ),
    runner=run_update_path,
    seed=29,
)


# ----------------------------------------------------------------------
# discovery grid
# ----------------------------------------------------------------------
def run_discovery(
    knobs: typing.Mapping[str, typing.Any], seed: int, smoke: bool
) -> RunOutput:
    """Ad-hoc names under silent host churn, one run per knob assignment.

    The workload body is :func:`repro.workloads.adhoc.drive_churn`:
    hosts vanish without retracting their names and return with bumped
    incarnations while a client keeps resolving through a
    :class:`~repro.discovery.DiscoveryNsm`.  The ``watchdog`` knob is
    the headline ablation — liveness-driven eviction against waiting
    out the entry TTL — scored by how long dead bindings keep being
    served (``staleness_after_vanish_ms``, ``stale_serves``).
    """
    from repro.workloads.adhoc import build_adhoc_world, drive_churn

    churn_interval_ms, down_ms = knobs["churn"]
    policy = DiscoveryPolicy(
        beacon_period_ms=knobs["beacon_period"],
        entry_ttl_ms=10_000.0,
        watchdog_multiplier=knobs["watchdog"],
    )
    world = build_adhoc_world(seed=seed, policy=policy, host_count=6)
    env = world.env
    metrics = drive_churn(
        world,
        owners=3,
        duration_ms=20_000.0 if smoke else 60_000.0,
        churn_interval_ms=churn_interval_ms,
        down_ms=down_ms,
        query_interval_ms=400.0,
    )
    counters = env.stats.counters()
    metrics["evictions"] = float(counters.get("discovery.evictions", 0))
    metrics["requeries"] = float(counters.get("discovery.requeries", 0))
    return RunOutput(metrics=metrics, digest=run_digest(env), sim_ms=env.now)


DISCOVERY_GRID = GridDef(
    name="discovery",
    knobs=(
        # (mean crash interval ms, outage length ms) per churn event.
        Knob(
            "churn",
            baseline=("low", (6_000.0, 4_000.0)),
            variants=(("high", (2_500.0, 1_500.0)),),
        ),
        # How often each host announces its presence (ms).
        Knob("beacon_period", baseline=("fast", 500.0), variants=(("slow", 2_000.0),)),
        # Liveness deadline as a multiple of the beacon period;
        # ``ttl_only`` turns the watchdog off so eviction waits for
        # entry TTL.
        Knob("watchdog", baseline=("x3", 3.0), variants=(("ttl_only", 0.0),)),
    ),
    runner=run_discovery,
    seed=83,
    extras=(
        # The worst case the watchdog exists for: rapid churn with
        # TTL-only eviction, every outage served stale for seconds.
        (
            "high_churn_ttl_only",
            (("churn", "high"), ("watchdog", "ttl_only")),
        ),
    ),
)


# ----------------------------------------------------------------------
# resolution grid
# ----------------------------------------------------------------------
def run_resolution(
    knobs: typing.Mapping[str, typing.Any], seed: int, smoke: bool
) -> RunOutput:
    """Open-loop Imports through one fault, under one resolution policy.

    Imports of ``DesiredService`` on ``fiji`` arrive at 4 per sim second
    (Poisson) on a ``REMOTE_NSMS`` stack whose meta cache has a 1 s TTL.
    The ``fault`` knob: 10 % datagram loss, or a third of the names in
    one of four unregistered contexts, for the whole run; or, 10 s in,
    a 30 s partition of the meta primary, a 6 s crash of the meta BIND
    or an 8 s crash of the NSM host.  An op is answered by a binding or
    by "no such context".  Availability and the percentiles (answered
    ops) count the ops issued while the fault stands, the whole run for
    ``none``: fault-free ops would only dilute what a knob buys.
    """
    from repro.workloads.scenarios import TARGET_SERVICE, build_stack, build_testbed

    duration_ms = 50_000.0 if smoke else 120_000.0
    calibration = dataclasses.replace(DEFAULT_CALIBRATION, meta_ttl_ms=1_000.0)
    testbed = build_testbed(seed=seed, calibration=calibration)
    env = testbed.env
    policy = ResolutionPolicy(
        attempts=knobs["retry"],
        negative_ttl_ms=knobs["negative"],
        stale_window_ms=knobs["stale"],
    )
    importer = build_stack(
        testbed,
        Arrangement.REMOTE_NSMS,
        policies=PolicySet(resolution=policy, fast_path=FastPathPolicy()),
    ).importer
    run_process(env, importer.import_binding(TARGET_SERVICE, FIJI))  # warm
    start = env.now
    window = (start, start + duration_ms)
    segment = testbed.internet.segments[0]
    meta, nsm_host = testbed.meta_host, testbed.nsm_host
    others = [host for host in segment.hosts if host is not meta]
    # Each outage: how it strikes, how it heals, how long it lasts.
    outage = {
        "partition_meta": (lambda: segment.partition([meta], others), segment.heal, 30_000.0),
        "crash_meta": (meta.crash, meta.restart, 6_000.0),
        "crash_nsm": (nsm_host.crash, nsm_host.restart, 8_000.0),
    }.get(knobs["fault"])
    if knobs["fault"] == "drop_p10":
        segment.set_loss(0.10)
    elif outage is not None:
        strike, heal, outage_ms = outage
        window = (start + 10_000.0, start + 10_000.0 + outage_ms)

        def inject() -> "ProcessGenerator":
            yield env.timeout(window[0] - start)
            strike()
            yield env.timeout(outage_ms)
            heal()

        env.process(inject())
    nxdomain_share = 1.0 / 3.0 if knobs["fault"] == "nxdomain" else 0.0
    missing = [HNSName(f"nx-{i}", FIJI.name) for i in range(4)]
    rng = env.rng.stream("harness.resolution")
    before = env.stats.counters()
    #: (issued at, latency or None when the op failed), per op
    ops: typing.List[typing.Tuple[float, typing.Optional[float]]] = []

    def one_import(name: HNSName) -> "ProcessGenerator":
        t0 = env.now
        try:
            yield from importer.import_binding(TARGET_SERVICE, name)
        except ContextNotFound:
            pass  # a definitive answer
        except Exception:
            ops.append((t0, None))  # retries exhausted: an availability miss
            return
        ops.append((t0, env.now - t0))

    def arrivals() -> "ProcessGenerator":
        while True:
            yield env.timeout(rng.expovariate(1.0 / 250.0))
            if env.now >= start + duration_ms:
                return
            name = rng.choice(missing) if rng.random() < nxdomain_share else FIJI
            env.process(one_import(name))

    env.process(arrivals())
    _idle(env, duration_ms + 60_000.0)
    grown = {
        name: value - before.get(name, 0)
        for name, value in env.stats.counters().items()
    }
    faulted = [latency for t0, latency in ops if window[0] <= t0 < window[1]]
    answered = [latency for latency in faulted if latency is not None]
    metrics = {
        "ops": float(len(ops)),
        "faulted_ops": float(len(faulted)),
        "availability": len(answered) / max(1, len(faulted)),
        "p50_ms": percentile(answered, 50),
        "p99_ms": percentile(answered, 99),
        "remote_queries_per_op": sum(
            value for name, value in grown.items() if name.endswith("-bind.requests")
        ) / max(1, len(ops)),
        "stale_serves": float(
            sum(value for name, value in grown.items() if name.endswith(".stale_hits"))
        ),
    }
    return RunOutput(metrics=metrics, digest=run_digest(env), sim_ms=env.now)


RESOLUTION_GRID = GridDef(
    name="resolution",
    knobs=(
        # What goes wrong (see run_resolution).
        Knob(
            "fault",
            baseline=("none", "none"),
            variants=tuple(
                (fault, fault)
                for fault in (
                    "drop_p10", "partition_meta", "crash_meta", "crash_nsm", "nxdomain"
                )
            ),
        ),
        # Each ResolutionPolicy field: its default, and its .disabled() value.
        Knob("retry", baseline=("x4", 4), variants=(("x1", 1),)),
        Knob("negative", baseline=("30s", 30_000.0), variants=(("off", 0.0),)),
        Knob("stale", baseline=("120s", 120_000.0), variants=(("off", 0.0),)),
    ),
    runner=run_resolution,
    seed=58,
    extras=(
        # Each one-off under the faults it exists for.
        ("retry_x1@crash_meta", (("retry", "x1"), ("fault", "crash_meta"))),
        ("retry_x1@crash_nsm", (("retry", "x1"), ("fault", "crash_nsm"))),
        ("retry_x1@drop_p10", (("retry", "x1"), ("fault", "drop_p10"))),
        ("negative_off@nxdomain", (("negative", "off"), ("fault", "nxdomain"))),
        ("stale_off@partition_meta", (("stale", "off"), ("fault", "partition_meta"))),
    ),
)


#: Every registered grid, by name; ``python -m repro.cli bench all`` runs
#: them all and the CI perf gate compares each against its baseline.
GRIDS: typing.Dict[str, GridDef] = {
    grid.name: grid
    for grid in (
        FAST_PATH_GRID, REPLICA_GRID, UPDATE_GRID, DISCOVERY_GRID, RESOLUTION_GRID
    )
}


#: how long the flaky primary holds a stalled datagram: past the replica
#: grid's 100 ms transport timeout
STALL_MS = 400.0


class _FlakyBindServer(_BindServer):
    """A BindServer that intermittently stalls past the client timeout."""

    def __init__(
        self,
        *args: typing.Any,
        stall_probability: float = 0.0,
        **kwargs: typing.Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.stall_probability = stall_probability
        self._rng = self.env.rng.stream(f"harness.stall:{self.name}")

    def handle(
        self, datagram: typing.Any, responder: typing.Any
    ) -> typing.Any:
        """Serve one datagram, sometimes after the injected stall."""
        if self._rng.random() < self.stall_probability:
            return self._stalled(datagram, responder)
        return super().handle(datagram, responder)

    def _stalled(self, datagram: typing.Any, responder: typing.Any) -> typing.Any:
        yield self.env.timeout(STALL_MS)
        handler = super().handle(datagram, responder)
        if handler is not None:
            yield from handler
