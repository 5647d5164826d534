"""What one span costs the host, counted.

Tracing is worth leaving on only while a span stays a handful of calls:
``span()``, the ``Span`` constructor, the ``with`` protocol, one
``SpanMetrics.observe`` and one ``Histogram.record``.  Off, it is worth
leaving in only while a site costs nothing: every site is written
``with (obs.span(...) if obs.enabled else NULL_SPAN) as span:``, so it
is one attribute test and a no-op enter/exit on the shared span — never
a call into ``Observability.span``, whose kwargs dict and attribute
arguments would be built for nobody.  A hot site sets attributes only
on a recording span (``if span.recording: span.set(...)``), so with
tracing off it builds no attribute dict and enters no ``set``.  Both
counts are ``COSTS``' ``span/*`` rows (``tests/test_costs.py``).
"""

import ast
import dataclasses
import functools
import pathlib

from repro.core import Arrangement, HNSName
from repro.obs import NULL_SPAN, Observability, SpanMetrics
from repro.obs.span import NullSpan
from repro.sim import Environment
from repro.workloads import build_stack, build_testbed
from tests.cost import PROBES, WARM_UPS, probe, window

PAIRS = 200
SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def calls_per_span(traced):
    """The cost per span over nested outer/inner pairs, run inside a
    process, where every instrumented site runs; the warm-ups bind the
    histograms and fill the exemplar buckets."""
    env = Environment(seed=0)
    if traced:
        env.obs.enable(metrics=SpanMetrics(env))
    obs = env.obs

    def pair():
        with (obs.span("outer", layer="test") if obs.enabled else NULL_SPAN):
            with (
                obs.span("inner", layer="test") if obs.enabled else NULL_SPAN
            ) as inner:
                if inner.recording:
                    inner.set(outcome="hit")

    cost = window(env, pair, PAIRS)
    assert len(env.obs.spans) == (2 * (WARM_UPS + PAIRS) if traced else 0)
    # pair() itself is one of the counted frames, and not a span's cost
    return dataclasses.replace(
        cost,
        python_calls=(cost.python_calls - 1) / 2,
        c_calls=cost.c_calls / 2,
        heap_entries=cost.heap_entries / 2,
    )


@probe("span/on")
def _recorded_span():
    """``span()``, ``Span.__init__``, ``__enter__``, ``__exit__``,
    ``observe``, ``record`` and, on every second span, ``set()`` and an
    exemplar's RNG stream."""
    return calls_per_span(traced=True)


@probe("span/off")
def _disabled_span_site():
    """``__enter__`` and ``__exit__`` on the shared no-op span: no site
    calls ``span()`` to be handed it, nor ``set()`` on it."""
    return calls_per_span(traced=False)


def test_recorded_span_stays_within_ten_python_calls():
    """One ``span()`` a span, and no process started."""
    cost = PROBES["span/on"]()
    assert (cost.calls_to(Observability.span), cost.started) == (2, [])


def test_disabled_span_site_is_an_attribute_test_and_a_no_op_with():
    cost = PROBES["span/off"]()
    assert cost.calls_to(Observability.span) == cost.calls_to(NullSpan.set) == 0
    assert cost.calls_to(NullSpan.__enter__) == cost.calls_to(NullSpan.__exit__) == 2


def test_a_tracing_off_mapping_hit_sets_nothing_on_its_span():
    """``update_storm``'s read, mapping 1 hit on a warm meta store: its
    span site builds no attributes and calls no ``set`` when tracing is
    off, and still records both when it is on."""
    for traced in (False, True):
        testbed = build_testbed(seed=0)
        if traced:
            testbed.env.obs.enable()
        store = testbed.make_metastore(testbed.client)
        cost = window(
            testbed.env,
            functools.partial(store.context_to_name_service, "BIND-cs"),
            PAIRS,
        )
        if traced:
            last = testbed.env.obs.spans[-1]
            assert last.name == "meta.context_to_ns"
            assert last.attrs == {
                "mapping": 1, "context": "BIND-cs", "outcome": "hit", "ns": "BIND-cs",
            }
        else:
            assert cost.calls_to(NullSpan.set) == 0
            assert cost.calls_to(Observability.span) == 0


def span_entries_per_cold_import(traced, imports=2):
    """Frames entered in ``Observability.span`` per cold ``Import``."""
    testbed = build_testbed(seed=0)
    if traced:
        testbed.env.obs.enable()
    stack = build_stack(testbed, Arrangement.ALL_LOCAL)
    name = HNSName("BIND-cs", "fiji.cs.washington.edu")
    cost = window(
        testbed.env,
        functools.partial(stack.importer.import_binding, "DesiredService", name),
        imports,
        prepare=stack.flush_all_caches,
    )
    return cost.calls_to(Observability.span)


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
    assert len(sites) >= 23
    assert [site for site, guarded in sites.items() if not guarded] == []
