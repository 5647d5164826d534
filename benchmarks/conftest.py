"""Shared helpers for the benchmarks beside the paper's report.

The paper's own figures are declared once, in ``repro.harness.report``.
The five files here measure what the paper argues but does not
tabulate: Figure 2.1's query flow (``bench_figure_2_1``), the dynamic
hit ratios it leaves open (``bench_dynamic_hit_ratios``), the design
choices DESIGN.md calls out (``bench_ablations``), load distribution
(``bench_scalability``) and the ablation engine's parallel fan-out
(``bench_harness``).  Each prints what it measures (run with ``-s``;
values also land in ``benchmark.extra_info``) and asserts its claim.
"""

from repro.core import HNSName

FIJI = HNSName("BIND-cs", "fiji.cs.washington.edu")
DLION = HNSName("CH-hcs", "dlion:hcs:uw")


def run(env, gen):
    return env.run(until=env.process(gen))


def timed(env, gen):
    """Run a process; return elapsed simulated ms."""
    start = env.now
    run(env, gen)
    return env.now - start
