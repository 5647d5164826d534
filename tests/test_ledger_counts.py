"""The perf ledger's exact counts, pinned in one table.

Every per-op count the ledger reports is deterministic for a seed, and
so is every simulated latency.  This test reproduces the driver's
profiled repetition in process (``benchmarks/e2e``, imported here
read-only) for every workload ``BENCHMARK.json`` lists, with the op
stream and op counts of

    python3 benchmarks/e2e/run.py --workload <w> --seed 7 --scale 0.05 --seconds 4 --trace 1

The plain pass reads the counters and latencies; the profiled pass, on
a quarter of the ops, counts the calls into entry points that keep no
counter.  A change that moves a count edits ``COUNTS`` and nothing
else: a mismatch prints the measured table as a literal to paste over
it.
"""

import cProfile
import functools
import gc
import json
import pathlib
import pprint
import sys

from tests.cost import Calls, Cost, probe

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = run.rep_seeds(7, 4)[0]
SCALE = 0.05
LEDGER = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

#: per workload, ledger metric -> value, each rounded by ``_pin``.  What
#: moves them: a server handler back in a process (``cold_import``
#: ``sim.processes_per_op`` 8.58) or one under every beacon
#: (``adhoc_churn`` 4.76); a lost or doubled exchange, charge or wire
#: entry (``sim.events_per_op``, ``net.datagrams_per_op``); a marshal
#: that goes around ``encode``/``decode``; a span site that stops
#: recording or records twice; a NOTIFY or IXFR more or fewer; a probe
#: that misses; a lease lost from a kernel lane; any simulated ms.
COUNTS = {'adhoc_churn': {'discovery.stale_serve_share': 0.03,
                 'discovery.staleness_after_vanish_ms': 1128.291791,
                 'net.datagrams_per_op': 5.333333333,
                 'sim.events_per_op': 9.74,
                 'sim.processes_per_op': 0.02777777778,
                 'sim_ms_mean': 4.402341303,
                 'sim_ms_p99': 62.50698563,
                 'sim_ops_per_s': 48.39138026},
 'cold_import': {'net.datagrams_per_op': 8.5,
                 'serial.decodes_per_op': 6.5,
                 'serial.encodes_per_op': 14.0,
                 'sim.events_per_op': 81.92,
                 'sim.processes_per_op': 0.08333333333,
                 'sim_ms_mean': 523.2637247,
                 'sim_ms_p99': 587.4755809,
                 'sim_ops_per_s': 1.769633809},
 'mclient_zipf': {'sim.events_per_op': 3.001333333,
                  'sim.standing_timers_end': 2250.0,
                  'sim_ms_mean': 9.915238349,
                  'sim_ms_p99': 39.11729294,
                  'sim_ops_per_s': 15406.99903},
 'traced_import': {'obs.dropped_spans': 0.0,
                   'obs.spans_per_op': 27.45714286,
                   'sim.events_per_op': 82.11428571,
                   'sim_ms_mean': 525.1221029,
                   'sim_ms_p99': 587.4755809,
                   'sim_ops_per_s': 1.760190043},
 'update_storm': {'bind.ixfrs_per_op': 0.008865248227,
                  'bind.notifies_per_op': 0.009308510638,
                  'core.read_sim_ms_p99': 4.812690506,
                  'core.stale_read_share': 0.02175925926,
                  'core.write_sim_ms_p50': 96.328,
                  'sim.events_per_op': 3.982712766,
                  'sim_ms_mean': 5.462727898,
                  'sim_ms_p99': 96.328,
                  'sim_ops_per_s': 179.361245},
 'warm_zipf': {'bind.cache_hit_ratio': 1.0,
               'sim.events_per_op': 11.79166667,
               'sim.processes_per_op': 0.3333333333,
               'sim_ms_mean': 6.601287554,
               'sim_ms_p99': 13.20019944,
               'sim_ops_per_s': 30.78723447}}


def _pin(value):
    """The table's one rounding rule: ten significant digits."""
    return float(f"{value:.10g}")


def _repetition(name, ops, profiler=None):
    """(prepared, outcome, counter deltas, whether every op and the
    output check passed) of one measured phase, as ``run.child_rep``
    takes them."""
    prepared = workloads.WORKLOADS[name].prepare(SEED, ops)
    env = prepared.env

    def counters():
        return {**env.stats.counters(), **env.kernel_counters()}

    before = counters()
    # no collection in the phase: earlier tests' finalizers stay out of it
    collecting = gc.isenabled()
    gc.disable()
    try:
        if profiler is not None:
            profiler.enable()
        outcome = prepared.measure()
    finally:
        if profiler is not None:
            profiler.disable()
        if collecting:
            gc.enable()
    after = counters()
    checked = prepared.finish(outcome) and outcome.failed == 0
    delta = {counter: value - before.get(counter, 0) for counter, value in after.items()}
    delta["sim.kernel.standing_timers"] = (
        after["sim.kernel.events_scheduled"] - after["sim.kernel.events_processed"]
    )
    return prepared, outcome, delta, checked


def measure(name):
    """Every count and simulated metric of ``name``'s profiled
    repetition, and whether both of its passes checked out."""
    ops = run.scaled_ops(name, SCALE)
    prepared, outcome, delta, checked = _repetition(name, ops)
    env = prepared.env
    metrics = layers.boundary_counts(delta, prepared.ops)
    metrics.update(run.simulated([{"latencies": outcome.latencies, "sim_ms": outcome.sim_ms}]))
    metrics["obs.spans_per_op"] = (len(env.obs.spans) + env.obs.dropped) / prepared.ops
    metrics["obs.dropped_spans"] = env.obs.dropped
    metrics.update(outcome.extra)
    profiler = cProfile.Profile()
    profiled, _, _, profiled_checked = _repetition(
        name, max(1, round(ops * run.TRACED_SCALE)), profiler
    )
    profiler.create_stats()
    for entry, calls in layers.entry_calls(profiler.stats).items():
        metrics[f"{entry}_per_op"] = calls / profiled.ops
    return metrics, checked and profiled_checked


def python_calls_per_op(name):
    """Python calls per op over ``name``'s profiled repetition, counted
    by ``tests/cost.py``'s hook, after one unprofiled repetition: as a
    window's warm-ups do, it keeps first-use paths (a module-level memo
    filled) out of the count, so the row reads the same in any process
    and after any test."""
    ops = max(1, round(run.scaled_ops(name, SCALE) * run.TRACED_SCALE))
    _repetition(name, ops)
    calls = Calls()
    prepared, _, _, checked = _repetition(name, ops, calls)
    assert checked, "a failed op or output check"
    frames, ops = calls.frames, prepared.ops
    return Cost(sum(frames.values()) / ops, calls.c_calls / ops, None, [], ops, frames)


for _name in LEDGER:
    probe(f"ledger/{_name}", memo=True)(functools.partial(python_calls_per_op, _name))


def test_the_table_covers_every_ledger_workload():
    assert sorted(COUNTS) == sorted(LEDGER)


def test_ledger_counts():
    measured, unchecked = {}, []
    for name in LEDGER:
        metrics, checked = measure(name)
        measured[name] = {metric: _pin(metrics[metric]) for metric in COUNTS.get(name, ())}
        if not checked:
            unchecked.append(name)
    assert measured == COUNTS, "measured:\nCOUNTS = " + pprint.pformat(measured)
    assert unchecked == [], "a failed op or output check"
