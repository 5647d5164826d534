"""Span mechanics: identity, nesting, sampling, and the off switch."""

import pytest

from repro.obs import DEFAULT_BOUNDS, NULL_SPAN, NullSpan, SpanMetrics
from repro.sim import Environment


def run(env, gen):
    return env.run(until=env.process(gen))


# ----------------------------------------------------------------------
# Disabled: the zero-cost path
# ----------------------------------------------------------------------
def test_disabled_span_is_the_shared_null_span():
    env = Environment(seed=1)
    span = env.obs.span("hns.find_nsm", context="BIND-cs")
    assert span is NULL_SPAN
    with span as s:
        s.set(anything="goes")
    assert env.obs.spans == []
    assert env.obs.dropped == 0


def test_null_span_carries_no_identity():
    assert NULL_SPAN.trace_id == 0
    assert NULL_SPAN.span_id == 0
    assert NULL_SPAN.parent_id is None
    assert not NULL_SPAN.recording


# ----------------------------------------------------------------------
# Recording basics
# ----------------------------------------------------------------------
def test_span_records_simulated_times_attrs_and_status():
    env = Environment(seed=2)
    env.obs.enable()

    def work():
        with env.obs.span("hns.op", kind="test") as span:
            yield env.timeout(5.0)
            span.set(outcome="done")

    run(env, work())
    (span,) = env.obs.spans
    assert span.name == "hns.op"
    assert span.start_ms == 0.0
    assert span.end_ms == 5.0
    assert span.duration_ms == 5.0
    assert span.finished
    assert span.attrs == {"kind": "test", "outcome": "done"}
    assert span.status == "ok" and span.error == ""
    assert span.parent_id is None
    assert span.trace_id != 0


def test_nested_spans_share_the_trace_and_link_parents():
    env = Environment(seed=3)
    env.obs.enable()

    def work():
        with env.obs.span("outer") as outer:
            with env.obs.span("inner") as inner:
                yield env.timeout(1.0)
            assert inner.parent_id == outer.span_id
            assert inner.trace_id == outer.trace_id

    run(env, work())
    # Completion order: inner closes first.
    assert [s.name for s in env.obs.spans] == ["inner", "outer"]
    assert env.obs.roots()[0].name == "outer"
    assert env.obs.trace_spans(env.obs.roots()[0].trace_id) == env.obs.spans


def test_explicit_parent_none_forces_a_new_root():
    env = Environment(seed=4)
    env.obs.enable()

    def work():
        with env.obs.span("outer") as outer:
            with env.obs.span("detached", parent=None) as detached:
                yield env.timeout(1.0)
            assert detached.parent_id is None
            assert detached.trace_id != outer.trace_id

    run(env, work())
    assert len(env.obs.roots()) == 2
    assert len(env.obs.traces()) == 2


def test_name_is_positional_only_so_a_name_attribute_is_legal():
    env = Environment(seed=5)
    env.obs.enable()
    with env.obs.span("hns.find_nsm", name="BIND-cs::fiji") as span:
        pass
    assert span.attrs["name"] == "BIND-cs::fiji"
    assert span.name == "hns.find_nsm"


def test_exception_marks_the_span_as_error_and_still_records():
    env = Environment(seed=6)
    env.obs.enable()
    with pytest.raises(ValueError):
        with env.obs.span("doomed"):
            raise ValueError("boom")
    (span,) = env.obs.spans
    assert span.status == "error"
    assert span.error == "ValueError"
    assert span.finished


def test_current_returns_the_innermost_open_span():
    env = Environment(seed=7)
    env.obs.enable()
    assert env.obs.current() is None
    with env.obs.span("outer") as outer:
        assert env.obs.current() is outer
        with env.obs.span("inner") as inner:
            assert env.obs.current() is inner
        assert env.obs.current() is outer
    assert env.obs.current() is None


# ----------------------------------------------------------------------
# Cross-process propagation
# ----------------------------------------------------------------------
def test_spawned_process_does_not_inherit_implicitly():
    env = Environment(seed=8)
    env.obs.enable()

    def child():
        with env.obs.span("child"):
            yield env.timeout(1.0)

    def parent():
        with env.obs.span("parent"):
            env.process(child())
            yield env.timeout(5.0)

    run(env, parent())
    child_span = env.obs.spans_named("child")[0]
    parent_span = env.obs.spans_named("parent")[0]
    # A fresh process starts a fresh trace unless the parent is passed.
    assert child_span.parent_id is None
    assert child_span.trace_id != parent_span.trace_id


def test_explicit_parent_carries_the_trace_across_processes():
    env = Environment(seed=9)
    env.obs.enable()

    def child(parent):
        with env.obs.span("child", parent=parent):
            yield env.timeout(1.0)

    def parent():
        with env.obs.span("parent"):
            env.process(child(env.obs.current()))
            yield env.timeout(5.0)

    run(env, parent())
    child_span = env.obs.spans_named("child")[0]
    parent_span = env.obs.spans_named("parent")[0]
    assert child_span.parent_id == parent_span.span_id
    assert child_span.trace_id == parent_span.trace_id
    assert len(env.obs.traces()) == 1


# ----------------------------------------------------------------------
# Sampling, caps, determinism
# ----------------------------------------------------------------------
def test_sampling_keeps_every_nth_root_and_mutes_descendants():
    env = Environment(seed=10)
    env.obs.enable(sample_every=2)
    for _ in range(4):
        with env.obs.span("root") as root:
            with env.obs.span("child") as child:
                if not root.recording:
                    # Sampled-out root: descendants no-op too.
                    assert isinstance(root, NullSpan)
                    assert child is NULL_SPAN
    # Roots 1 and 3 of 4 are kept, each with its child.
    assert len(env.obs.roots()) == 2
    assert len(env.obs.spans_named("child")) == 2
    assert len(env.obs.spans) == 4


def test_sample_every_must_be_positive():
    env = Environment(seed=11)
    with pytest.raises(ValueError):
        env.obs.enable(sample_every=0)


def test_max_spans_cap_counts_drops_and_clear_resets():
    env = Environment(seed=12)
    env.obs.enable()
    env.obs.max_spans = 2
    for _ in range(3):
        with env.obs.span("s", parent=None):
            pass
    assert len(env.obs.spans) == 2
    assert env.obs.dropped == 1
    env.obs.clear()
    assert env.obs.spans == []
    assert env.obs.dropped == 0


def test_metrics_are_fed_past_the_span_cap():
    """The cap bounds retention; the O(1) histograms keep counting."""
    env = Environment(seed=12)
    env.obs.enable(metrics=SpanMetrics(env))
    env.obs.max_spans = 2
    for _ in range(5):
        with env.obs.span("s", parent=None):
            pass
    assert len(env.obs.spans) == 2
    assert env.obs.dropped == 3
    assert env.stats.histogram("obs.span.s", DEFAULT_BOUNDS).total == 5


def test_trace_ids_replay_deterministically_per_seed():
    def one_trace(seed):
        env = Environment(seed=seed)
        env.obs.enable()
        with env.obs.span("root") as span:
            pass
        return span.trace_id

    assert one_trace(7) == one_trace(7)
    assert one_trace(7) != one_trace(8)


def test_trace_id_draws_come_from_a_dedicated_stream():
    """Tracing must not advance any RNG stream a workload reads."""
    env_plain = Environment(seed=13)
    before = env_plain.rng.stream("net.latency").random()

    env_traced = Environment(seed=13)
    env_traced.obs.enable()
    with env_traced.obs.span("root"):
        pass
    after = env_traced.rng.stream("net.latency").random()
    assert before == after
