"""From spans to metrics: histogram aggregation plus exemplars.

The stats registry answers "how slow are ``FindNSM``\\s?"; a trace
answers "why was *that one* slow?".  This pipeline connects the two:
every finished span feeds a per-span-name latency histogram
(``obs.span.<name>``) in the environment's :class:`~repro.sim.stats.
StatsRegistry`, and an :class:`ExemplarStore` keeps a few *trace ids*
per histogram bucket — so a fat p99 bucket comes with concrete traces
to pull up in the critical-path report.

Histograms and timers are outside the determinism digest (which covers
trace records, counters, and the clock), so recording here cannot
perturb a run.  Nothing in this module touches counters.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.obs.span import Span
    from repro.sim.kernel import Environment
    from repro.sim.stats import Histogram

#: Default latency bucket bounds (simulated ms): resolution steps range
#: from sub-ms cache probes to multi-second retry ladders.
DEFAULT_BOUNDS: typing.Tuple[float, ...] = (
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0,
    100.0, 200.0, 500.0, 1_000.0, 2_000.0, 5_000.0,
)

#: What a span name resolves to, once: its histogram and that
#: histogram's exemplar buckets (bucket index -> sample trace ids).
_Binding = typing.Tuple["Histogram", typing.Dict[int, typing.List[int]]]


class ExemplarStore:
    """Per-bucket sample trace ids for each span-name histogram.

    At most ``per_bucket`` trace ids are kept per bucket, first-come —
    deterministic given a deterministic span stream, and enough to jump
    from any bucket of ``obs.span.<name>`` to real traces that landed
    in it.
    """

    def __init__(self, per_bucket: int = 3):
        if per_bucket < 1:
            raise ValueError("per_bucket must be >= 1")
        self.per_bucket = per_bucket
        #: histogram name -> bucket index -> [trace ids]
        self._store: typing.Dict[str, typing.Dict[int, typing.List[int]]] = {}

    def record(self, name: str, bucket_index: int, trace_id: int) -> None:
        buckets = self._store.setdefault(name, {})
        ids = buckets.setdefault(bucket_index, [])
        if len(ids) < self.per_bucket and trace_id not in ids:
            ids.append(trace_id)

    def exemplars(self, name: str) -> typing.Dict[int, typing.List[int]]:
        """bucket index -> sample trace ids, for one histogram."""
        return {
            index: list(ids)
            for index, ids in self._store.get(name, {}).items()
        }

    def names(self) -> typing.List[str]:
        return sorted(self._store)


class SpanMetrics:
    """The span->stats pipeline; attach via ``env.obs.enable(metrics=...)``."""

    def __init__(
        self,
        env: "Environment",
        bounds: typing.Sequence[float] = DEFAULT_BOUNDS,
        exemplars_per_bucket: int = 3,
    ):
        self.env = env
        self.bounds = tuple(float(b) for b in bounds)
        self.exemplars = ExemplarStore(exemplars_per_bucket)
        #: span name -> binding, resolved on the name's first span
        self._bound: typing.Dict[str, _Binding] = {}

    def observe(self, span: "Span") -> None:
        """Fold one finished span into the histograms + exemplars."""
        end_ms = span.end_ms
        if end_ms is None:
            return
        binding = self._bound.get(span.name)
        if binding is None:
            histogram = self.env.stats.histogram(
                f"obs.span.{span.name}", self.bounds
            )
            binding = self._bound[span.name] = (
                histogram,
                self.exemplars._store.setdefault(histogram.name, {}),
            )
        histogram, buckets = binding
        index = histogram.record(end_ms - span.start_ms)
        # A bucket that holds its fill of exemplars takes no more.
        ids = buckets.get(index)
        if ids is None or len(ids) < self.exemplars.per_bucket:
            self.exemplars.record(histogram.name, index, span.trace_id)
