"""The span->stats pipeline: histograms plus exemplar trace ids."""

from repro.obs import DEFAULT_BOUNDS, ExemplarStore, SpanMetrics
from repro.obs import metrics as metrics_module
from repro.sim import Environment


def run(env, gen):
    return env.run(until=env.process(gen))


def test_observe_folds_spans_into_named_histograms():
    env = Environment(seed=1)
    env.obs.enable(metrics=SpanMetrics(env))

    def work():
        with env.obs.span("bind.lookup"):
            yield env.timeout(3.0)
        with env.obs.span("bind.lookup"):
            yield env.timeout(30.0)

    run(env, work())
    snap = env.stats.histograms()["obs.span.bind.lookup"]
    assert snap["total"] == 2
    assert snap["min"] == 3.0 and snap["max"] == 30.0


def test_exemplars_map_buckets_back_to_trace_ids():
    env = Environment(seed=2)
    metrics = SpanMetrics(env)
    env.obs.enable(metrics=metrics)

    def work():
        with env.obs.span("hns.find_nsm") as span:
            yield env.timeout(4.0)
        return span.trace_id

    trace_id = run(env, work())
    exemplars = metrics.exemplars.exemplars("obs.span.hns.find_nsm")
    assert metrics.exemplars.names() == ["obs.span.hns.find_nsm"]
    (ids,) = exemplars.values()
    assert ids == [trace_id]


def test_exemplar_store_caps_per_bucket_first_come(monkeypatch):
    monkeypatch.setattr(metrics_module, "EXEMPLARS_PER_BUCKET", 2)
    store = ExemplarStore()
    store.record("h", 0, 111)
    store.record("h", 0, 222)
    store.record("h", 0, 333)  # over the cap: dropped
    store.record("h", 0, 111)  # duplicate: dropped
    store.record("h", 5, 444)
    assert store.exemplars("h") == {0: [111, 222], 5: [444]}
    assert store.exemplars("missing") == {}


def test_default_bounds_are_sorted_and_span_the_latency_range():
    assert list(DEFAULT_BOUNDS) == sorted(DEFAULT_BOUNDS)
    assert DEFAULT_BOUNDS[0] <= 1.0  # sub-ms cache probes
    assert DEFAULT_BOUNDS[-1] >= 5_000.0  # retry ladders


def test_unfinished_spans_are_not_observed():
    env = Environment(seed=3)
    metrics = SpanMetrics(env)
    env.obs.enable(metrics=metrics)
    open_span = env.obs.span("open.never_closed")
    metrics.observe(open_span)  # still open: end_ms is None
    assert "obs.span.open.never_closed" not in env.stats.histograms()
