"""Deterministic discrete-event simulation kernel.

This package is the substrate on which every other subsystem runs.  The
paper's evaluation (Tables 3.1 and 3.2, and the surrounding measurements)
is a function of *how many* remote calls, cache probes, disk accesses, and
marshalling operations each design performs, multiplied by per-primitive
costs measured on the 1987 testbed.  A discrete-event simulator that
charges calibrated costs for those primitives therefore reproduces the
paper's tradeoffs exactly, while being deterministic and laptop-scale.

The kernel is a small SimPy-flavoured engine:

- :class:`~repro.sim.kernel.Environment` owns the virtual clock and the
  event queue and runs generator-based processes.
- :class:`~repro.sim.events.Event`, :class:`~repro.sim.events.Timeout`,
  :class:`~repro.sim.events.AnyOf` and :class:`~repro.sim.events.AllOf`
  are the things a process may ``yield``.
- :class:`~repro.sim.resources.Resource`, ``CPU`` and ``Disk`` model
  contended devices with service times.
- :class:`~repro.sim.rng.RngRegistry` hands out independent, named,
  seeded random streams so that runs are reproducible.
- :class:`~repro.sim.trace.Tracer` and :mod:`repro.sim.stats` provide the
  instrumentation the benchmark harness reads.

All simulated time is in **milliseconds** (float), matching the paper's
reporting units.
"""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "events": ("AllOf", "AnyOf", "Event", "Interrupt", "Timeout"),
    "kernel": ("Environment", "SimulationError"),
    "process": ("Process",),
    "resources": ("CPU", "Disk", "Resource"),
    "rng": ("RngRegistry",),
    "latency": ("ConstantLatency", "LatencyModel", "UniformLatency"),
    "trace": ("TraceRecord", "Tracer"),
    "stats": ("Counter", "Histogram", "StatsRegistry"),
})
