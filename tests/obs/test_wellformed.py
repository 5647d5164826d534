"""Every registered scenario, fully traced, yields well-formed traces.

The invariants here are about the *shape* of what ``repro.obs`` records
— ids, parent links, nesting — not about which sites are instrumented,
so they keep holding as instrumentation is added.
"""

import collections

import pytest

from repro.obs import Observability
from repro.sim import Environment
from repro.workloads.scenarios import SCENARIOS


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_traced_scenario_is_well_formed(scenario, monkeypatch):
    monkeypatch.setattr(Observability, "default_enabled", True)
    env = SCENARIOS[scenario](0)
    spans = env.obs.spans
    assert env.obs.dropped == 0
    assert env.obs.current() is None

    by_id = {span.span_id: span for span in spans}
    assert len(by_id) == len(spans)

    roots = collections.Counter(
        span.trace_id for span in spans if span.parent_id is None
    )
    assert set(roots) == {span.trace_id for span in spans}
    assert set(roots.values()) <= {1}

    for span in spans:
        assert span.finished and span.start_ms <= span.end_ms
        if span.parent_id is None:
            continue
        parent = by_id[span.parent_id]
        assert parent.trace_id == span.trace_id
        assert parent.span_id < span.span_id
        assert parent.start_ms <= span.start_ms
        # A cross-process child (hedge leg, deferred renewal) may
        # outlive the span that launched it; a same-process one cannot.
        if span.process == parent.process:
            assert span.end_ms <= parent.end_ms


def test_generator_torn_down_elsewhere_unhooks_from_its_owner():
    """``close()`` runs a span's ``__exit__`` in whoever called it.

    The span comes off the chain of the process that opened it, not the
    closer's.  (A span left hanging has no public observable — the
    victim never runs again — so this reads the private chain head.)
    """
    env = Environment(seed=1)
    env.obs.enable()

    def victim():
        with env.obs.span("outer"):
            with env.obs.span("inner"):
                yield env.timeout(10.0)

    generator = victim()
    process = env.process(generator)

    def closer():
        yield env.timeout(1.0)
        assert process._span.name == "inner"
        with env.obs.span("closing") as closing:
            generator.close()
            assert env.obs.current() is closing
        assert env.obs.current() is None

    env.run(until=env.process(closer()))
    assert process._span is None
    assert [s.name for s in env.obs.spans] == ["inner", "outer", "closing"]
    assert {s.name: s.error for s in env.obs.spans} == {
        "inner": "GeneratorExit",
        "outer": "GeneratorExit",
        "closing": "",
    }
