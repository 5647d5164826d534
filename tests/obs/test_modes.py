"""Off, sampled, full: what the tracing mode may and may not change.

Spans never schedule events, charge CPU or advance a workload's RNG
stream, so the simulated latency of an import is bit-identical whether
tracing is off, sampled, or fully on with the metrics pipeline attached;
only the span volume follows the mode.  (What a span costs the *host* is
the perf ledger's ``traced_import`` against its control ``cold_import``,
and ``test_span_budget.py`` in calls.)
"""

from repro.core import Arrangement, HNSName
from repro.obs import SpanMetrics
from repro.workloads import build_stack, build_testbed

FIJI = HNSName("BIND-cs", "fiji.cs.washington.edu")

#: imports per mode; every 4th runs against flushed (cold) caches
IMPORTS = 8


def run_mode(mode):
    """One pass of the mixed import stream; (sim latencies, env)."""
    testbed = build_testbed(seed=23)
    stack = build_stack(testbed, Arrangement.ALL_LOCAL)
    env = testbed.env
    if mode == "sampled":
        env.obs.enable(sample_every=16)
    elif mode == "full":
        env.obs.enable(metrics=SpanMetrics(env))
    latencies = []
    for i in range(IMPORTS):
        if i % 4 == 0:
            stack.flush_all_caches()
        start = env.now
        env.run(
            until=env.process(
                stack.importer.import_binding("DesiredService", FIJI)
            )
        )
        latencies.append(env.now - start)
    return latencies, env


def test_tracing_mode_moves_span_volume_and_never_simulated_time():
    off, env_off = run_mode("off")
    sampled, env_sampled = run_mode("sampled")
    full, env_full = run_mode("full")

    assert off == sampled
    assert off == full

    assert len(env_off.obs.spans) == 0
    assert 0 < len(env_sampled.obs.spans) < len(env_full.obs.spans)
    assert "obs.span.hrpc.import" in env_full.stats.histograms()
