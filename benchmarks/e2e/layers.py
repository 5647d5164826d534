"""Per-layer attribution: host time by module, counts at layer
boundaries, and micro-probes of each layer's public entry points.

Layers are the package names under ``src/repro``.  Nothing here touches
the program: host time comes from a ``cProfile`` pass bucketed by the
file each function lives in, counts come from the counters the program
already keeps, and probes call a layer's public functions from outside.
"""

from __future__ import annotations

import os
import time
import typing

from repro.bind import BindResolver, ResolverCache, ResourceRecord
from repro.bind.messages import QUERY_RESPONSE_IDL, STATUS_OK, QueryResponse
from repro.core import HNSName
from repro.discovery.beacon import DiscoveryCache
from repro.discovery.messages import PresenceBeacon
from repro.hrpc import HRPCBinding, HrpcRuntime
from repro.net.addresses import Endpoint
from repro.net.host import Service
from repro.obs import SpanMetrics
from repro.serial import StubCompiler
from repro.sim import Environment
from repro.workloads import build_testbed

LAYERS = (
    "sim", "net", "serial", "bind", "core", "hrpc", "obs", "discovery",
    "clearinghouse", "resolution", "driver", "other",
)

#: package (or module) under ``repro`` -> layer; anything else in the
#: process (standard library, ``repro.harness`` tables) is ``other``
_PACKAGE_LAYER = {
    "sim": "sim",
    "net": "net",
    "serial": "serial",
    "bind": "bind",
    "core": "core",
    "hrpc": "hrpc",
    "obs": "obs",
    "discovery": "discovery",
    "broadcast": "discovery",
    "clearinghouse": "clearinghouse",
    "resolution": "resolution",
    "workloads": "driver",
}
_HERE = os.path.dirname(os.path.abspath(__file__))
_REPRO = os.sep + "repro" + os.sep

ProfileStats = typing.Mapping[tuple, tuple]


def layer_of(filename: str) -> str:
    if _REPRO in filename:
        package = filename.split(_REPRO, 1)[1].split(os.sep, 1)[0]
        return _PACKAGE_LAYER.get(package.removesuffix(".py"), "other")
    if filename.startswith(_HERE):
        return "driver"
    return "other"


def self_seconds(stats: ProfileStats) -> typing.Dict[str, float]:
    """Bucket every function's own time by layer.

    ``stats`` is ``cProfile.Profile.stats`` after ``create_stats()``:
    ``func -> (cc, nc, tottime, cumtime, callers)``.  Built-in and C
    functions have no file, so their time is charged to the layer of
    whoever called them, through the caller table.
    """
    out = dict.fromkeys(LAYERS, 0.0)
    for (filename, _line, _name), (_cc, _nc, tottime, _ct, callers) in stats.items():
        if filename != "~":
            out[layer_of(filename)] += tottime
            continue
        for (caller_file, _l, _n), (_nc2, _cc2, caller_tt, _ct2) in callers.items():
            out["other" if caller_file == "~" else layer_of(caller_file)] += caller_tt
    return out


def entry_calls(stats: ProfileStats) -> typing.Dict[str, int]:
    """Calls into public entry points that keep no counter of their own."""
    out = {"serial.encodes": 0, "serial.decodes": 0, "sim.processes": 0}
    marshallers = (
        os.path.join("serial", "generated.py"), os.path.join("serial", "handcoded.py"),
    )
    kernel = os.path.join("sim", "kernel.py")
    for (filename, _line, name), (_cc, ncalls, _tt, _ct, _callers) in stats.items():
        if filename.endswith(marshallers) and name in ("encode", "decode"):
            out[f"serial.{name}s"] += ncalls
        elif filename.endswith(kernel) and name == "process":
            out["sim.processes"] += ncalls
    return out


# ----------------------------------------------------------------------
# Counts at layer boundaries
# ----------------------------------------------------------------------
def _sum(counters: typing.Mapping[str, int], prefix: str, suffix: str = "") -> int:
    return sum(
        value
        for name, value in counters.items()
        if name.startswith(prefix) and name.endswith(suffix)
    )


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def boundary_counts(
    counters: typing.Mapping[str, int], ops: int
) -> typing.Dict[str, float]:
    """Per-op counts from the measured phase's counter deltas.

    ``counters`` is ``env.stats.counters()`` plus ``env.kernel_counters()``,
    end minus start of the measured phase, plus the timers still standing
    at its end.  Exact for a seed.
    """
    hits = _sum(counters, "cache.", ".hits")
    misses = _sum(counters, "cache.", ".misses")
    nsm_hits = _sum(counters, "nsm.", ".cache_hits")
    natives = _sum(counters, "nsm.", ".native_queries")
    ixfrs = _sum(counters, "bind.", ".ixfrs")
    events = counters.get("sim.kernel.events_processed", 0)
    per_op = {
        "sim.events_per_op": events,
        "net.datagrams_per_op": _sum(counters, "net.", ".delivered"),
        "net.broadcasts_per_op": _sum(counters, "net.", ".broadcasts"),
        "net.retransmits_per_op": _sum(counters, "net.", ".retransmits"),
        "bind.server_queries_per_op": _sum(counters, "bind.", ".queries"),
        "bind.server_updates_per_op": _sum(counters, "bind.", ".updates"),
        "bind.remote_lookups_per_op": _sum(counters, "bind.", ".remote_lookups"),
        "bind.notifies_per_op": counters.get("bind.update.notifies", 0),
        "bind.ixfrs_per_op": ixfrs,
        "core.find_nsm_per_op": counters.get("hns.find_nsm", 0),
        "core.native_queries_per_op": natives,
        "hrpc.imports_per_op": counters.get("hrpc.imports", 0),
        "hrpc.calls_per_op": _sum(counters, "hrpc.calls."),
        "clearinghouse.lookups_per_op": _sum(counters, "ch.", ".lookups"),
        "discovery.beacons_per_op": counters.get("discovery.beacons_sent", 0),
        "discovery.evictions_per_op": counters.get("discovery.evictions", 0),
        "discovery.requeries_per_op": counters.get("discovery.requeries", 0),
    }
    out = {name: count / ops for name, count in per_op.items()}
    out["sim.standing_timers_end"] = float(counters["sim.kernel.standing_timers"])
    out["bind.cache_hit_ratio"] = _ratio(hits, hits + misses)
    out["bind.update_ops_per_batch"] = _ratio(
        counters.get("bind.update.ops", 0), counters.get("bind.update.batches", 0)
    )
    out["bind.ixfr_fallback_ratio"] = _ratio(
        _sum(counters, "bind.", ".ixfr_fallbacks"), ixfrs
    )
    out["core.nsm_cache_hit_ratio"] = _ratio(nsm_hits, nsm_hits + natives)
    return out


# ----------------------------------------------------------------------
# Probes: one layer's public functions, timed from outside
# ----------------------------------------------------------------------
def _best_us(batch: typing.Callable[[int], object], n: int, seconds: float) -> float:
    """Least wall µs per call over batches of ``n`` calls, for about
    ``seconds`` (one batch at least).  Host noise only ever adds time,
    so the fastest batch is the steadiest estimate."""
    best = float("inf")
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        batch(n)
        now = time.perf_counter()
        best = min(best, (now - started) / n)
        if now >= deadline:
            return best * 1e6


def run_probes(seconds: float) -> typing.Dict[str, float]:
    """Every probe, each for about ``seconds``."""
    out: typing.Dict[str, float] = {}

    # sim: 2 000 processes x 100 chained timeouts on a fresh kernel
    def churn(_n: int) -> int:
        env = Environment(0)
        delays = [0.5 + (i % 7) * 0.25 for i in range(100)]

        def proc() -> typing.Generator:
            for delay in delays:
                yield env.timeout(delay)

        for _ in range(2_000):
            env.process(proc())
        env.run()
        return env.kernel_counters()["sim.kernel.events_processed"]

    events = churn(0)
    out["sim.probe.churn_events_per_s"] = 1e6 / _best_us(churn, events, seconds)

    # serial: generated marshaller on a 6-record BIND response (Table 3.2)
    marshaller = StubCompiler().marshaller(QUERY_RESPONSE_IDL)
    response = QueryResponse(
        STATUS_OK,
        [ResourceRecord.a_record("fiji.cs.washington.edu", "128.95.1.4")] * 6,
    ).to_idl()
    wire, _ = marshaller.encode(response)

    def encode(n: int) -> None:
        for _ in range(n):
            marshaller.encode(response)

    def decode(n: int) -> None:
        for _ in range(n):
            marshaller.decode(wire)

    out["serial.probe.encode_us"] = _best_us(encode, 200, seconds)
    out["serial.probe.decode_us"] = _best_us(decode, 200, seconds)

    testbed = build_testbed(seed=0)
    env, client = testbed.env, testbed.client

    def simulated(op: typing.Callable[[], typing.Generator]):
        def batch(n: int) -> None:
            def loop() -> typing.Generator:
                for _ in range(n):
                    yield from op()

            env.run(until=env.process(loop()))

        return batch

    # net: one datagram request/reply between two hosts
    class Echo(Service):
        def handle(self, datagram, responder):
            responder(datagram.payload, 64)
            return
            yield

    echo = testbed.june.bind(7, Echo())
    out["net.probe.request_us"] = _best_us(
        simulated(lambda: testbed.udp.request(client, echo, "ping", 64)), 200, seconds
    )

    # bind: a warm cache entry, and a full lookup with the cache cleared
    cache = ResolverCache(env, name="probe", calibration=testbed.calibration)
    cache.insert("warm", ("payload",), 1, ttl_ms=1e12)

    def cache_hit(n: int) -> None:
        for _ in range(n):
            entry, _cost = cache.probe("warm")
            cache.hit_cost(entry)

    out["bind.probe.cache_hit_us"] = _best_us(cache_hit, 2_000, seconds)
    resolver = BindResolver(
        client, testbed.udp, testbed.public_endpoint, cache=cache,
        calibration=testbed.calibration, name="probe",
    )

    def lookup_miss() -> typing.Generator:
        cache.clear()
        yield from resolver.lookup("fiji.cs.washington.edu")

    out["bind.probe.lookup_miss_us"] = _best_us(simulated(lookup_miss), 100, seconds)

    # core: FindNSM with every meta mapping cached
    hns = testbed.make_hns(client)
    name = HNSName("BIND-cs", "fiji.cs.washington.edu")
    out["core.probe.find_nsm_hit_us"] = _best_us(
        simulated(lambda: hns.find_nsm(name, "HRPCBinding")), 100, seconds
    )

    # hrpc: one remote procedure call
    runtime = HrpcRuntime(client, testbed.internet)
    target = HRPCBinding(Endpoint(testbed.fiji.address, 9999), "DesiredService")
    out["hrpc.probe.call_us"] = _best_us(
        simulated(lambda: runtime.call(target, "ping")), 100, seconds
    )

    # obs: one span enter/exit, collection off and on
    obs_env = Environment(0)

    def span(n: int) -> None:
        obs_env.obs.clear()
        for _ in range(n):
            with obs_env.obs.span("probe", layer="obs"):
                pass

    out["obs.probe.span_off_ns"] = _best_us(span, 5_000, seconds) * 1e3
    obs_env.obs.enable(metrics=SpanMetrics(obs_env))
    out["obs.probe.span_on_us"] = _best_us(span, 5_000, seconds)

    # discovery: absorbing one overheard beacon
    view = DiscoveryCache(env)
    beacon = PresenceBeacon.signed("adhoc1", "10.0.0.1", 1, {"svc-0": "9000"})

    def observe(n: int) -> None:
        for _ in range(n):
            view.observe(beacon)

    out["discovery.probe.observe_us"] = _best_us(observe, 2_000, seconds)
    return out
