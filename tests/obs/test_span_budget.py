"""What one span costs the host, counted and pinned.

Tracing is worth leaving on only while a span stays a handful of calls:
``span()``, the ``Span`` constructor, the ``with`` protocol, one
``SpanMetrics.observe`` and one ``Histogram.record``.  Host cost is
counted, not timed — ``sys.setprofile`` ``call`` events (Python frames
entered) per span, with headroom between interpreter versions — so the
test says the same thing on any machine.  Off, an instrumentation site
costs exactly its three calls on the shared no-op span.
"""

import collections
import gc
import sys

from repro.obs import SpanMetrics
from repro.sim import Environment

WARM_UPS = 3
PAIRS = 200


def calls_per_span(traced):
    """(python calls, C calls) per span over nested outer/inner pairs."""
    env = Environment(seed=0)
    if traced:
        env.obs.enable(metrics=SpanMetrics(env))
    events = collections.Counter()

    def profile(_frame, event, _arg):
        events[event] += 1

    def pair():
        with env.obs.span("outer", layer="test"):
            with env.obs.span("inner", layer="test") as inner:
                inner.set(outcome="hit")

    def driver():
        # Inside a process, where every instrumented site runs; the
        # warm-ups bind the histograms and fill the exemplar buckets.
        for _ in range(WARM_UPS):
            pair()
        # A collection inside the window would count the finalizers of
        # earlier tests' garbage (a closed generator is a frame entered).
        gc.collect()
        gc.disable()
        outer = sys.getprofile()
        sys.setprofile(profile)
        try:
            for _ in range(PAIRS):
                pair()
        finally:
            sys.setprofile(outer)
            gc.enable()
        yield env.timeout(0.0)

    env.run(until=env.process(driver()))
    expected = 2 * (WARM_UPS + PAIRS) if traced else 0
    assert len(env.obs.spans) == expected
    # pair() itself is one of the counted frames, and not a span's cost
    spans = 2 * PAIRS
    return (events["call"] - PAIRS) / spans, events["c_call"] / spans


def test_recorded_span_stays_within_ten_python_calls():
    python_calls, c_calls = calls_per_span(traced=True)
    print(f"span on: {python_calls:.1f} python calls, {c_calls:.1f} C calls")
    # 28 / 17 C calls when the open span was a dict probe and a list
    assert python_calls <= 10


def test_disabled_span_costs_its_three_calls_and_nothing_else():
    python_calls, c_calls = calls_per_span(traced=False)
    print(f"span off: {python_calls:.1f} python calls, {c_calls:.1f} C calls")
    # span(), __enter__, __exit__ and, on every second span, set()
    assert python_calls == 3.5
