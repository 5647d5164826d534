"""What one span costs the host, counted and pinned.

Tracing is worth leaving on only while a span stays a handful of calls:
``span()``, the ``Span`` constructor, the ``with`` protocol, one
``SpanMetrics.observe`` and one ``Histogram.record``.  Host cost is
counted, not timed — ``sys.setprofile`` ``call`` events (Python frames
entered) per span, with headroom between interpreter versions — so the
test says the same thing on any machine.

Off, it is worth leaving in only while a site costs nothing: every site
is written ``with (obs.span(...) if obs.enabled else NULL_SPAN) as
span:``, so it is one attribute test and a no-op enter/exit on the
shared span — never a call into ``Observability.span``, whose kwargs
dict and attribute arguments would be built for nobody.
"""

import ast
import collections
import gc
import pathlib
import sys

from repro.core import Arrangement, HNSName
from repro.obs import NULL_SPAN, Observability, SpanMetrics
from repro.sim import Environment
from repro.workloads import build_stack, build_testbed

WARM_UPS = 3
PAIRS = 200
SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def calls_per_span(traced):
    """(python calls, C calls) per span over nested outer/inner pairs."""
    env = Environment(seed=0)
    if traced:
        env.obs.enable(metrics=SpanMetrics(env))
    obs = env.obs
    events = collections.Counter()

    def profile(_frame, event, _arg):
        events[event] += 1

    def pair():
        with (obs.span("outer", layer="test") if obs.enabled else NULL_SPAN):
            with (
                obs.span("inner", layer="test") if obs.enabled else NULL_SPAN
            ) as inner:
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


def test_disabled_span_site_is_an_attribute_test_and_a_no_op_with():
    python_calls, c_calls = calls_per_span(traced=False)
    print(f"span off: {python_calls:.1f} python calls, {c_calls:.1f} C calls")
    # __enter__, __exit__ and, on every second span, set(); 3.5 while
    # every site called span() to be handed the shared no-op span
    assert python_calls == 2.5


def span_entries_per_cold_import(traced, imports=2):
    """Frames entered in ``Observability.span`` per cold ``Import``."""
    testbed = build_testbed(seed=0)
    env = testbed.env
    if traced:
        env.obs.enable()
    stack = build_stack(testbed, Arrangement.ALL_LOCAL)
    name = HNSName("BIND-cs", "fiji.cs.washington.edu")
    span_code = Observability.span.__code__
    entered = collections.Counter()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code is span_code:
            entered["span"] += 1

    def driver():
        for _ in range(imports):
            stack.flush_all_caches()
            outer = sys.getprofile()
            sys.setprofile(profile)
            try:
                yield from stack.importer.import_binding("DesiredService", name)
            finally:
                sys.setprofile(outer)

    env.run(until=env.process(driver()))
    return entered["span"] / imports


def test_a_cold_import_with_tracing_off_never_enters_span():
    on = span_entries_per_cold_import(traced=True)
    off = span_entries_per_cold_import(traced=False)
    print(f"cold Import: {on:g} span() calls traced, {off:g} untraced")
    assert on > 0  # the probe sees the sites when they do work
    assert off == 0


def span_sites(source):
    """``(line, guarded)`` for every ``X.span(...)`` call in ``source``;
    guarded means it is the body of ``X.span(...) if X.enabled else
    NULL_SPAN``."""
    tree = ast.parse(source)
    parents = {
        child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)
    }
    sites = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "span"
        ):
            continue
        guard = parents.get(node)
        guarded = (
            isinstance(guard, ast.IfExp)
            and guard.body is node
            and isinstance(guard.test, ast.Attribute)
            and guard.test.attr == "enabled"
            and ast.dump(guard.test.value) == ast.dump(node.func.value)
            and isinstance(guard.orelse, ast.Name)
            and guard.orelse.id == "NULL_SPAN"
        )
        sites.append((node.lineno, guarded))
    return sites


def test_the_guard_check_tells_a_guarded_site_from_a_bare_one():
    guarded = "with (obs.span('a', k=1) if obs.enabled else NULL_SPAN) as s:\n    pass\n"
    bare = "with env.obs.span('a', k=1) as s:\n    pass\n"
    other_receiver = "with (obs.span('a') if env.obs.enabled else NULL_SPAN):\n    pass\n"
    assert span_sites(guarded) == [(1, True)]
    assert span_sites(bare) == [(1, False)]
    assert span_sites(other_receiver) == [(1, False)]


def test_every_span_site_under_src_is_guarded():
    sites = {
        f"{path.relative_to(SRC)}:{line}": guarded
        for path in sorted(SRC.rglob("*.py"))
        for line, guarded in span_sites(path.read_text())
    }
    # the scan reaches the instrumented modules (the meta store's four
    # mappings open their spans at one site)
    assert len(sites) >= 25
    assert [site for site, guarded in sites.items() if not guarded] == []
