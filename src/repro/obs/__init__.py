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

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, {
    "critical_path": ("CriticalPath", "PathStep"),
    "export": ("chrome_trace", "render_trace", "trace_to_json", "write_chrome_trace", "write_json"),
    "metrics": ("DEFAULT_BOUNDS", "ExemplarStore", "SpanMetrics"),
    "span": ("NULL_SPAN", "NullSpan", "Observability", "Span"),
})
