"""Harness: tables, calibration coherence."""

import pytest

from repro.harness import (
    ComparisonTable,
    DEFAULT_CALIBRATION,
    format_table,
)


def test_format_table_alignment():
    text = format_table(["a", "bb"], [["1", "222"], ["33", "4"]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert len(lines) == 5


def test_comparison_table_deviation():
    table = ComparisonTable("Test", unit="ms")
    row = table.add("x", paper=100, measured=104, tolerance_pct=5)
    assert row.deviation_pct == pytest.approx(4.0)
    rendered = table.render()
    assert "paper (ms)" in rendered and "+4.0" in rendered and "tol %" in rendered
    table.check()
    table.add("y", paper=200, measured=190, tolerance_pct=4.5)
    with pytest.raises(AssertionError, match="y deviates -5.0%"):
        table.check()


def test_comparison_table_zero_paper_value():
    """A zero paper figure would bound no deviation; no paper figure is 0."""
    with pytest.raises(ValueError):
        ComparisonTable("Z").add("zero", paper=0, measured=5, tolerance_pct=1)


def test_calibration_is_frozen_and_overridable():
    import dataclasses

    with pytest.raises(dataclasses.FrozenInstanceError):
        DEFAULT_CALIBRATION.wire_base_ms = 5  # type: ignore[misc]
    variant = dataclasses.replace(DEFAULT_CALIBRATION, meta_bind_lookup_ms=99)
    assert variant.meta_bind_lookup_ms == 99
    assert DEFAULT_CALIBRATION.meta_bind_lookup_ms != 99


def test_calibration_derived_cache_hit_matches_table_3_2():
    assert DEFAULT_CALIBRATION.derived_cache_hit_ms(1) == pytest.approx(0.83)
    assert DEFAULT_CALIBRATION.derived_cache_hit_ms(6) == pytest.approx(1.22)


def test_clearinghouse_cost_decomposition_sums_to_about_156():
    cal = DEFAULT_CALIBRATION
    server_side = (
        cal.ch_auth_cpu_ms + cal.ch_auth_disk_ms + cal.ch_data_disk_ms + cal.ch_process_ms
    )
    assert 145 < server_side < 156  # the rest is wire + marshalling


def test_custom_calibration_flows_through():
    """An ablated calibration (free meta lookups) changes measured costs."""
    import dataclasses

    from repro.core import Arrangement, HNSName
    from repro.workloads import build_stack, build_testbed

    fast = dataclasses.replace(
        DEFAULT_CALIBRATION, hrpc_meta_call_ms=0.0, meta_bind_lookup_ms=0.1
    )
    tb = build_testbed(seed=6, calibration=fast)
    stack = build_stack(tb, Arrangement.ALL_LOCAL)
    stack.flush_all_caches()
    env = tb.env
    start = env.now
    env.run(
        until=env.process(
            stack.importer.import_binding(
                "DesiredService", HNSName("BIND-cs", "fiji.cs.washington.edu")
            )
        )
    )
    assert env.now - start < 460  # cheaper than the calibrated cold path
