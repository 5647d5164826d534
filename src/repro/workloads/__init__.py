"""Workloads: the simulated HCS testbed and query-stream generators."""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "scenarios": ("HcsTestbed", "build_stack", "build_testbed"),
    "generator": ("QueryEvent", "QueryWorkload"),
    "zipf": ("ZipfDistribution",),
})
