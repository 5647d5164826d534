"""``repro.obs``: causal tracing and metrics for the resolution stack.

Spans (:mod:`repro.obs.span`) thread a deterministic trace id through
the whole resolution pipeline — ``Import`` -> ``FindNSM`` -> meta
mappings -> BIND replica legs -> NSM calls — without perturbing the
simulation.  On top of them: critical-path extraction
(:mod:`repro.obs.critical_path`), span-to-histogram aggregation with
exemplars (:mod:`repro.obs.metrics`), and JSON / Perfetto / text
exporters (:mod:`repro.obs.export`).

Enable per environment::

    env.obs.enable()                        # every trace
    env.obs.enable(sample_every=16)         # deterministic sampling
    env.obs.enable(metrics=SpanMetrics(env))  # + histograms/exemplars

Off by default; when on, runs stay digest-identical to untraced runs
(verified by ``python -m repro.analysis --scenarios``).
"""

from repro.obs.critical_path import CriticalPath, PathStep
from repro.obs.export import (
    chrome_trace,
    render_trace,
    trace_to_json,
    write_chrome_trace,
    write_json,
)
from repro.obs.metrics import DEFAULT_BOUNDS, ExemplarStore, SpanMetrics
from repro.obs.span import NULL_SPAN, NullSpan, Observability, Span

__all__ = [
    "CriticalPath",
    "PathStep",
    "chrome_trace",
    "render_trace",
    "trace_to_json",
    "write_chrome_trace",
    "write_json",
    "DEFAULT_BOUNDS",
    "ExemplarStore",
    "SpanMetrics",
    "NULL_SPAN",
    "NullSpan",
    "Observability",
    "Span",
]
