#!/usr/bin/env python3
"""The perf ledger: six reference workloads, two currencies, per layer.

    python3 benchmarks/e2e/run.py --seed 7                    # every workload + traced pass
    python3 benchmarks/e2e/run.py --workload warm_zipf --seed 7 --seconds 12 --trace 0
    python3 benchmarks/e2e/run.py compare before.json after.json

Metric names, units, directions and bounds are read from
``BENCHMARK.json`` at the root of the checkout; ``README.md`` beside this
file is the catalogue.  Every repetition runs in a fresh child process
(clean heap, clean peak RSS, honest set-up time), one at a time.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pathlib
import statistics
import subprocess
import sys
import time
import typing

import hostspeed

HERE = pathlib.Path(__file__).resolve()
ROOT = HERE.parents[2]
sys.path.insert(0, str(ROOT / "src"))

#: A repetition's process starts reading the host's speed here, before
#: ``repro`` is imported: importing it is part of the set-up it times.
SPEED = hostspeed.HostSpeed() if sys.argv[1:2] == ["rep"] else None

import layers  # noqa: E402  (beside this file; both need src on the path)
import workloads  # noqa: E402
from repro.analysis.determinism import run_digest  # noqa: E402
from workloads import percentile  # noqa: E402

#: a repetition is sized to measure for about this long on a 2-core host;
#: ``--seconds`` buys ``seconds / NOMINAL_REP_S`` of them
NOMINAL_REP_S = 2.0
#: share of the ops the profiled repetition runs
TRACED_SCALE = 0.25
#: a run whose repetitions' mean yardstick readings (``host.calib_ms``)
#: have an interquartile spread above this is marked noisy
CALIB_DRIFT = 0.10

HOST_NOISE_METRICS = ("setup_s", "wall_us_per_op", "peak_rss_mb")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def peak_rss_mb() -> float:
    """This process's own peak resident set, in MiB.

    ``ru_maxrss`` survives fork+exec, so in a child it is at least the
    parent's size; the address space's high-water mark is reset by exec.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def spread(values: typing.Sequence[float]) -> float:
    """(max - min) / median."""
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


def quartile_spread(values: typing.Sequence[float]) -> float:
    """(third quartile - first quartile) / median, as the driver takes it."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


# ----------------------------------------------------------------------
# Child processes: one repetition, or the probes
# ----------------------------------------------------------------------
def child_rep(workload: str, seed: int, ops: int, profile: bool, spawned_at: float) -> dict:
    """Set up, measure and check one repetition in this process.

    Both wall metrics are in seconds of the reference host: this host
    slows by up to 2x for seconds or minutes at a time, and ``SPEED``
    reads how fast it is every 50 ms, all the way through.
    """
    speed = typing.cast(hostspeed.HostSpeed, SPEED)
    prepared = workloads.WORKLOADS[workload].prepare(seed, ops)
    env = prepared.env

    def counters() -> typing.Dict[str, int]:
        return {**env.stats.counters(), **env.kernel_counters()}

    gc.collect()
    gc.freeze()
    before = counters()
    profiler = cProfile.Profile() if profile else None
    if profiler is not None:
        speed.halt()
        profiler.enable()
    started = time.perf_counter()
    outcome = prepared.measure()
    ended = time.perf_counter()
    if profiler is not None:
        profiler.disable()
    speed.halt()
    after = counters()
    checks_ok = prepared.finish(outcome)
    delta = {name: value - before.get(name, 0) for name, value in after.items()}
    delta["sim.kernel.standing_timers"] = (
        after["sim.kernel.events_scheduled"] - after["sim.kernel.events_processed"]
    )
    # From the parent's spawn to the end of set-up: interpreter start,
    # importing repro, op stream, world, warm-up.
    start_up = speed.born_epoch - spawned_at
    result = {
        "ops": prepared.ops,
        "failed": outcome.failed,
        "checks_ok": checks_ok,
        "setup_s": speed.reference_seconds(speed.born - start_up, started),
        "wall_us_per_op": speed.reference_seconds(started, ended) / prepared.ops * 1e6,
        "calib_ms": speed.mean_ms(),
        "sim_ms": outcome.sim_ms,
        "latencies": outcome.latencies,
        "digest": run_digest(env),
        "counters": delta,
        "extra": outcome.extra,
        "obs_spans": len(env.obs.spans) + env.obs.dropped,
        "obs_dropped": env.obs.dropped,
        "rss_mb": peak_rss_mb(),
    }
    if profiler is not None:
        profiler.create_stats()
        result["self_s"] = layers.self_seconds(profiler.stats)
        result["entry_calls"] = layers.entry_calls(profiler.stats)
    return result


def spawn(*args: object) -> dict:
    """Run one child to completion; its last stdout line is its result."""
    done = subprocess.run(
        [sys.executable, str(HERE), *map(str, args)],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def spawn_rep(workload: str, seed: int, ops: int, profile: bool = False) -> dict:
    return spawn("rep", workload, seed, ops, int(profile), repr(time.time()))


# ----------------------------------------------------------------------
# Plans and summaries
# ----------------------------------------------------------------------
def rep_seeds(seed: int, seconds: float) -> typing.List[int]:
    """The op-stream seed of every repetition.

    Repetitions draw distinct streams, so the simulated statistics pool
    several times the ops one repetition can afford; the last repetition
    replays the first one's stream and must reproduce it exactly.
    """
    reps = max(1, round(seconds / NOMINAL_REP_S))
    distinct = max(1, reps - 1)
    return [seed * 1_000 + r % distinct for r in range(reps)]


def scaled_ops(workload: str, scale: float) -> int:
    return max(1, round(workloads.WORKLOADS[workload].ops * scale))


def simulated(reps: typing.Sequence[dict]) -> typing.Dict[str, float]:
    """The deterministic end-to-end metrics, pooled over ``reps``."""
    latencies = [ms for rep in reps for ms in rep["latencies"]]
    sim_s = sum(rep["sim_ms"] for rep in reps) / 1e3
    return {
        "sim_ms_mean": statistics.fmean(latencies) if latencies else 0.0,
        "sim_ms_p99": percentile(latencies, 99),
        "sim_ops_per_s": len(latencies) / sim_s if sim_s else 0.0,
    }


def replay_mismatch(first: dict, replay: dict) -> typing.Optional[str]:
    """Name of the first thing a replay failed to reproduce, if any."""
    a, b = simulated([first]), simulated([replay])
    for name in a:
        if a[name] != b[name]:
            return name
    if first["failed"] != replay["failed"]:
        return "failed"
    if first["digest"] != replay["digest"]:
        return "run_digest"
    return None


def summarise(reps: typing.Sequence[dict]) -> dict:
    """End-to-end metrics of one workload from its repetitions."""
    distinct = reps[:-1] if len(reps) > 1 else reps
    mismatch = replay_mismatch(reps[0], reps[-1])
    metrics = simulated(distinct)
    # What noise is left after scaling goes both ways (a burst between two
    # readings adds time, a burst on a reading takes it away): the median.
    metrics["wall_us_per_op"] = statistics.median(rep["wall_us_per_op"] for rep in reps)
    metrics["setup_s"] = statistics.median(rep["setup_s"] for rep in reps)
    metrics["peak_rss_mb"] = statistics.median(rep["rss_mb"] for rep in reps)
    return {
        "metrics": metrics,
        "samples": {
            "wall_us_per_op": [rep["wall_us_per_op"] for rep in reps],
            "setup_s": [rep["setup_s"] for rep in reps],
            "peak_rss_mb": [rep["rss_mb"] for rep in reps],
        },
        "wall_spread": spread([rep["wall_us_per_op"] for rep in reps]),
        "attempted": sum(rep["ops"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "correct": mismatch is None and all(rep["checks_ok"] for rep in reps),
        "replay_mismatch": mismatch,
        "sim_samples": sum(len(rep["latencies"]) for rep in distinct),
        "digest": reps[0]["digest"],
    }


def layer_metrics(plain: dict, profiled: dict, probes: dict) -> typing.Dict[str, float]:
    """Per-layer metrics of one workload: counts from the untraced
    repetition, host time from the profiled one, plus the probes."""
    out = dict(probes)
    ops = profiled["ops"]
    total = sum(profiled["self_s"].values())
    for layer, seconds in profiled["self_s"].items():
        out[f"{layer}.self_us_per_op"] = seconds / ops * 1e6
        out[f"{layer}.self_share"] = seconds / total
    out["trace.overhead_ratio"] = profiled["wall_us_per_op"] / plain["wall_us_per_op"]
    out.update(layers.boundary_counts(plain["counters"], plain["ops"]))
    out["sim.us_per_event"] = plain["wall_us_per_op"] / out["sim.events_per_op"]
    for name, calls in profiled["entry_calls"].items():
        out[f"{name}_per_op"] = calls / ops
    out["obs.spans_per_op"] = plain["obs_spans"] / plain["ops"]
    out["obs.dropped_spans"] = plain["obs_dropped"]
    out["driver.sim_ms_p50"] = percentile(plain["latencies"], 50)
    out.update(dict.fromkeys(workloads.EXTRA_METRICS, 0.0), **plain["extra"])
    return out


def probe_seconds(share: float, seconds: float, scale: float) -> float:
    return share * seconds * min(1.0, scale)


# ----------------------------------------------------------------------
# The driver's contract: one workload per invocation
# ----------------------------------------------------------------------
def run_contract(args: argparse.Namespace, spec: dict) -> int:
    ops = scaled_ops(args.workload, args.scale)
    if args.trace:
        seed = rep_seeds(args.seed, args.seconds)[0]
        plain = spawn_rep(args.workload, seed, ops)
        profiled = spawn_rep(
            args.workload, seed, max(1, round(ops * TRACED_SCALE)), profile=True
        )
        probes = spawn("probes", probe_seconds(1 / 40, args.seconds, args.scale))
        values = layer_metrics(plain, profiled, probes)
        reps = [plain, profiled]
        listed = spec["per_layer"]
        summary = {
            "attempted": plain["ops"] + profiled["ops"],
            "failed": plain["failed"] + profiled["failed"],
            "correct": plain["checks_ok"] and profiled["checks_ok"],
        }
    else:
        reps = [
            spawn_rep(args.workload, seed, ops)
            for seed in rep_seeds(args.seed, args.seconds)
        ]
        summary = summarise(reps)
        values = summary["metrics"]
        listed = spec["end_to_end"]
    calib = [rep["calib_ms"] for rep in reps]
    print("detail " + json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "wall_us_per_op": [rep["wall_us_per_op"] for rep in reps],
        "replay_mismatch": summary.get("replay_mismatch"),
        "host.calib_ms": calib,
        "noisy": quartile_spread(calib) > CALIB_DRIFT,
    }))
    correct = summary["correct"] and summary["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in listed
        },
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# The ledger: every workload, interleaved, then the traced pass
# ----------------------------------------------------------------------
def run_ledger(args: argparse.Namespace, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    seeds = rep_seeds(args.seed, args.seconds)
    reps: typing.Dict[str, typing.List[dict]] = {name: [] for name in names}
    # Interleaved (w1..w6, w1..w6, ...) so a noisy minute hits every
    # workload once instead of one workload every time.
    for index, seed in enumerate(seeds):
        for name in names:
            print(f"rep {index + 1}/{len(seeds)} {name}", file=sys.stderr)
            reps[name].append(spawn_rep(name, seed, scaled_ops(name, args.scale)))
    ledger: dict = {
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "claim": None,
        "workloads": {name: summarise(reps[name]) for name in names},
    }
    if args.traced:
        print("traced pass + probes", file=sys.stderr)
        probes = spawn("probes", probe_seconds(1 / 10, args.seconds, args.scale))
        ledger["probes"] = probes
        for name in names:
            profiled = spawn_rep(
                name, seeds[0],
                max(1, round(scaled_ops(name, args.scale) * TRACED_SCALE)),
                profile=True,
            )
            entry = ledger["workloads"][name]
            entry["layers"] = layer_metrics(reps[name][0], profiled, {})
            entry["correct"] = entry["correct"] and profiled["checks_ok"]
            entry["failed"] += profiled["failed"]
        walls = {n: ledger["workloads"][n]["metrics"]["wall_us_per_op"] for n in names}
        if {"traced_import", "cold_import"} <= walls.keys():
            ledger["workloads"]["traced_import"]["layers"]["obs.wall_ratio"] = (
                walls["traced_import"] / walls["cold_import"]
            )
    calib = [rep["calib_ms"] for name in names for rep in reps[name]]
    ledger["host.calib_ms"] = [min(calib), max(calib)]
    ledger["noisy"] = quartile_spread(calib) > CALIB_DRIFT
    print_ledger(ledger, spec)
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    bad = [
        name for name, entry in ledger["workloads"].items()
        if not entry["correct"] or entry["failed"]
    ]
    for name in bad:
        entry = ledger["workloads"][name]
        print(
            f"FAILED {name}: {entry['failed']} failed ops, "
            f"first metric a replay did not reproduce: {entry['replay_mismatch']}",
            file=sys.stderr,
        )
    return 1 if bad else 0


def print_ledger(ledger: dict, spec: dict) -> None:
    print(
        f"seed {ledger['seed']}  scale {ledger['scale']}  "
        f"host.calib_ms {ledger['host.calib_ms'][0]:.1f} .. {ledger['host.calib_ms'][1]:.1f}"
        f" (reference {hostspeed.REFERENCE_MS})"
        + ("  NOISY" if ledger["noisy"] else "")
    )
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, entry in ledger["workloads"].items():
        print(
            f"\n== {name}: {entry['attempted']} ops attempted, {entry['failed']} failed, "
            f"{entry['sim_samples']} simulated samples, "
            f"wall_spread {entry['wall_spread']:.3f}, correct {entry['correct']}"
        )
        for m in spec["end_to_end"]:
            print(
                f"  {m['name']:<34}{entry['metrics'][m['name']]:>16.4f} {m['unit']:<10}"
                f"{m['better']} is better, bound {m['bound']:.0%}"
            )
        for metric, value in sorted(entry.get("layers", {}).items()):
            print(f"  {metric:<34}{value:>16.4f} {units.get(metric, 'ratio')}")
    if "probes" in ledger:
        print("\n== probes")
        for metric, value in sorted(ledger["probes"].items()):
            print(f"  {metric:<34}{value:>16.4f} {units[metric]}")


# ----------------------------------------------------------------------
# compare A.json B.json
# ----------------------------------------------------------------------
def verdict(metric: dict, a: dict, b: dict) -> typing.Tuple[float, str]:
    """(relative change towards worse, same|better|worse|unresolved)."""
    name, sign = metric["name"], 1.0 if metric["better"] == "lower" else -1.0
    before, after = a["metrics"][name], b["metrics"][name]
    worse_by = sign * (after - before) / before if before else 0.0
    noise = 0.0
    if name in HOST_NOISE_METRICS:
        runs_a, runs_b = a["samples"][name], b["samples"][name]
        noise = max(quartile_spread(runs_a), quartile_spread(runs_b))
        if noise > metric["bound"]:
            # Too noisy to call, unless every run of B beats every run of A
            # (all three host-noise metrics are lower-is-better).
            if max(runs_b) < min(runs_a):
                return worse_by, "better"
            return worse_by, "unresolved"
    if worse_by > metric["bound"]:
        return worse_by, "worse"
    if worse_by < -noise:
        return worse_by, "better"
    return worse_by, "same"


def run_compare(path_a: str, path_b: str, spec: dict) -> int:
    a, b = (json.loads(pathlib.Path(p).read_text()) for p in (path_a, path_b))
    if a["scale"] != b["scale"]:
        print(f"refusing to compare scale {a['scale']} with scale {b['scale']}")
        return 2
    if a["seed"] != b["seed"]:
        print(f"note: seeds differ ({a['seed']} vs {b['seed']}); simulated metrics "
              "are only exact for one seed")
    worse = False
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        print(f"== {name}")
        for metric in spec["end_to_end"]:
            wa, wb = a["workloads"][name], b["workloads"][name]
            change, word = verdict(metric, wa, wb)
            worse = worse or word == "worse"
            print(
                f"  {metric['name']:<18}{wa['metrics'][metric['name']]:>14.4f}"
                f"{wb['metrics'][metric['name']]:>14.4f} {metric['unit']:<10}"
                f"{change:>+8.2%} towards worse, bound {metric['bound']:.0%}: {word}"
            )
    return 1 if worse else 0


# ----------------------------------------------------------------------
def main(argv: typing.Sequence[str]) -> int:
    if argv and argv[0] == "rep":
        workload, seed, ops, profile = argv[1], int(argv[2]), int(argv[3]), argv[4] == "1"
        print(json.dumps(child_rep(workload, seed, ops, profile, float(argv[5]))))
        return 0
    if argv and argv[0] == "probes":
        print(json.dumps(layers.run_probes(float(argv[1]))))
        return 0
    spec = load_spec()
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            print("usage: run.py compare A.json B.json")
            return 2
        return run_compare(argv[1], argv[2], spec)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        help="run this workload only and print the driver's one-line result")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measuring time to plan for, per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 prints the per-layer metrics instead")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply op counts (development only; results are stamped)")
    parser.add_argument("--no-traced", dest="traced", action="store_false",
                        help="skip the traced pass and the probes")
    parser.add_argument("--out", help="write the ledger as JSON here")
    args = parser.parse_args(argv)
    if args.workload:
        return run_contract(args, spec)
    return run_ledger(args, spec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
