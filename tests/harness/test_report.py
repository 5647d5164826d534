"""The consolidated reproduction report: every paper figure within its bound."""

import dataclasses
import json

import pytest

from repro.harness import report
from repro.harness.calibration import DEFAULT_CALIBRATION, Calibration
from repro.harness.report import (
    CLAIMS,
    PAPER_TABLES,
    UNCONSTRAINED,
    ablation_tables,
    calibration_table,
    claims_table,
    main,
    remote_call,
    table_3_1,
)


@pytest.fixture(scope="module")
def tables():
    return {build.__name__: build() for build in PAPER_TABLES}


@pytest.fixture(scope="module")
def claims():
    return [row for build in CLAIMS for row in build()]


def measured(table, prefix):
    (row,) = [r for r in table.rows if r.label.startswith(prefix)]
    return row.measured


def series(claims, head, tail):
    """A sweep's values, in report order, by the labels' ends."""
    return [value for label, value in claims if label.startswith(head) and label.endswith(tail)]


def falls(values):
    """Strictly decreasing; ``falls(values[::-1])`` is strictly rising."""
    return all(a > b for a, b in zip(values, values[1:]))


def test_table_3_1_within_tolerance(tables):
    table = tables["table_3_1"]
    assert len(table.rows) == 15
    table.check()


@pytest.mark.parametrize(
    "name", [build.__name__ for build in PAPER_TABLES if build is not table_3_1]
)
def test_paper_table_within_bounds(tables, name):
    tables[name].check()


def test_section_3_relations(tables):
    """The paper's claims that relate figures, on the report's rows."""
    costs = tables["headline_figures"]
    cold = measured(costs, "FindNSM cold")
    cached = measured(costs, "FindNSM cached")
    call = measured(costs, "remote NSM call")
    # Caching removes the dominant cost; the remote NSM call sits in the
    # band of Table 3.1's single-call deltas, and 'the basic overhead of
    # HNS naming' (cached FindNSM plus one remote NSM call) stays far
    # below the cold path.
    assert cold / cached > 5
    assert 38 <= call <= 50
    assert cached + call < cold / 4
    # 'the cost of preloading plus a cache hit falls between one and two
    # cache miss times ... effective ... [for] two or more calls'.
    preload_plus_hit = measured(costs, "cache preload") + measured(
        costs, "FindNSM after preload"
    )
    assert cold < preload_plus_hit < 2 * cold
    assert measured(costs, "preload break-even") == 2
    # On the measured cells a remote HNS needs a small hit-rate edge and
    # remote NSMs a large one.
    eq1 = tables["equation_1"]
    hns = measured(eq1, "remote HNS, measured")
    nsm = measured(eq1, "remote NSMs, measured")
    assert hns < 20 and nsm > 30 and nsm > 2.5 * hns
    # Tuned HNS beats both reregistration baselines; untuned HNS is
    # several times slower than either.
    local, rereg, best, worst = (r.measured for r in tables["binding_baselines"].rows)
    assert best < rereg < local
    assert worst > 2 * rereg


def test_argued_relations(tables, claims):
    """The paper's arguments that print no figure, on the report's rows."""
    row = dict(claims)
    # Footnote 5: authentication and disk reads are what make a
    # Clearinghouse lookup slow; without both it approaches BIND's 27.
    assert row["Clearinghouse lookup, no authentication"] < 100
    assert row["Clearinghouse lookup, neither (BIND-like)"] < 35
    # §1/§2: 'the processing load is naturally distributed among the
    # subsystems'; one reregistered store serialises every client.
    assert row["makespan 8 x 4 clients: centralized"] > 5 * row[
        "makespan 8 x 4 clients: distributed"
    ]
    distributed = series(claims, "makespan", "x 2 clients: distributed")
    centralized = series(claims, "makespan", "x 2 clients: centralized")
    assert len(distributed) == len(centralized) == 3
    assert distributed[-1] < 2 * distributed[0]
    assert centralized[-1] > 5 * centralized[0]
    # §2 rejects broadcast location: its segment-wide cost grows with
    # the host count, already above two cached in-process mappings.
    aggregate = series(claims, "broadcast", "aggregate segment CPU")
    assert aggregate[-1] > 10 * aggregate[0]
    assert aggregate[0] > 2 * measured(tables["table_3_2"], "1 RR / demarshalled hit")
    # More system types leave a cold FindNSM flat; meta state grows linearly.
    cold = series(claims, "+", "cold FindNSM")
    zone = series(claims, "+", "meta zone bytes")
    assert max(cold) / min(cold) < 1.02
    assert zone[-1] < 4 * zone[0]
    # Long meta TTLs amortise the miss cost.
    assert falls(series(claims, "meta TTL", "mean Import"))
    assert series(claims, "meta TTL", "meta hit ratio")[-1] > 0.9
    # The caches pay off as locality of reference rises.
    hits = series(claims, "locality", "hit ratio")
    assert falls(series(claims, "locality", "mean HostAddress lookup"))
    assert falls(hits[::-1])
    assert hits[-1] - hits[0] >= 0.3
    # An undersized LRU cache thrashes; the working-set size restores hits.
    ratios = series(claims, "cache capacity", "hit ratio")
    assert ratios[0] < ratios[1] <= ratios[2]
    assert row["cache capacity 2: evictions"] > 0
    # Table 3.2 end to end: a marshalled meta cache re-pays demarshalling.
    assert row["warm FindNSM, marshalled meta cache"] > 6 * row[
        "warm FindNSM, demarshalled meta cache"
    ]
    # §3's dynamic hit ratios: a shared remote HNS wins exactly when
    # clients' workloads overlap.
    assert row["overlapping workloads: shared remote HNS per FindNSM"] < row[
        "overlapping workloads: local HNS per FindNSM"
    ]
    assert row["disjoint workloads: local HNS per FindNSM"] < row[
        "disjoint workloads: shared remote HNS per FindNSM"
    ]


def test_generate_report_contains_all_sections(
    tables, claims, calibration_matrix, generated_report
):
    for table in tables.values():
        assert table.render() in generated_report
    assert claims_table(claims) in generated_report
    assert calibration_table(*calibration_matrix) in generated_report


def test_every_calibration_constant_earns_a_figure(tables, calibration_matrix):
    """A constant moves a paper row, or UNCONSTRAINED says where it acts;
    an UNCONSTRAINED entry names a field that moves none."""
    rows, moved = calibration_matrix
    fields = [field.name for field in dataclasses.fields(Calibration)]
    assert list(moved) == fields
    assert len(rows) == sum(len(table.rows) for table in tables.values())
    assert [name for name in UNCONSTRAINED if name not in moved] == []
    assert [name for name in UNCONSTRAINED if moved.get(name)] == []
    assert [name for name in fields if not moved[name] and name not in UNCONSTRAINED] == []


def test_equation_1_numerator_follows_the_calibration(calibration_matrix):
    """C(remote call) is measured under the calibration the equation (1)
    rows run with: the Raw-HRPC control plus a round trip on the wire,
    so both rows move with those constants through their numerator too."""
    rows, moved = calibration_matrix
    equation = {row for row in rows if row.startswith("equation_1: ")}
    assert len(equation) == 2
    default = remote_call(DEFAULT_CALIBRATION)
    assert default == pytest.approx(34.2, abs=0.1)  # the paper estimates 33
    for name in ("hrpc_meta_call_ms", "wire_base_ms", "wire_per_byte_ms"):
        assert equation <= set(moved[name]), name
        raised = getattr(DEFAULT_CALIBRATION, name) * 1.1
        shift = remote_call(dataclasses.replace(DEFAULT_CALIBRATION, **{name: raised}))
        assert shift > default, name
    # the control counts once: raising it by x raises the call by x
    more = dataclasses.replace(DEFAULT_CALIBRATION, hrpc_meta_call_ms=42.16)
    assert remote_call(more) - default == pytest.approx(10.0)
    # and the call is the only part of a meta miss it keeps: a free one
    free = dataclasses.replace(
        DEFAULT_CALIBRATION, hrpc_meta_call_ms=0.0, wire_base_ms=0.0, wire_per_byte_ms=0.0
    )
    assert remote_call(free) == 0.0


def test_every_paper_row_is_fit_or_predicted(tables, generated_report):
    """A table marks only its own rows fit; the rest are predicted, and
    equation (1) is all prediction."""
    for table in tables.values():
        assert table.fit <= {row.label for row in table.rows}
    assert not tables["equation_1"].fit
    assert report.fit_summary(list(tables.values())) in generated_report


@pytest.fixture
def stub_report(monkeypatch):
    monkeypatch.setattr(report, "generate_report", lambda: "== Table 3.1 ==")


def test_main_writes_file(tmp_path, capsys, stub_report):
    target = tmp_path / "results.md"
    assert main([str(target)]) == 0
    assert "wrote" in capsys.readouterr().out
    assert target.read_text() == "== Table 3.1 ==\n"


def test_main_prints_to_stdout(capsys, stub_report):
    assert main([]) == 0
    assert capsys.readouterr().out == "== Table 3.1 ==\n"


def test_ablation_tables_renders_artifacts(tmp_path):
    artifact = {
        "schema_version": 2,
        "bench": "ablation_toy",
        "grid": "toy",
        "smoke": True,
        "runs": [
            {
                "key": "baseline",
                "status": "ok",
                "digest": "abc123def456",
                "metrics": {"p50_ms": 10.0, "p99_ms": 20.0},
            },
            {
                "key": "mode=boom",
                "status": "error",
                "digest": None,
                "metrics": {},
            },
        ],
        "importance": {
            "k=off": {
                "p99_ms": {
                    "baseline": 20.0,
                    "value": 50.0,
                    "delta": 30.0,
                    "ratio": 2.5,
                }
            }
        },
    }
    (tmp_path / "BENCH_ablation_toy.json").write_text(json.dumps(artifact))
    wide = [f"metric_{i}" for i in range(7)]
    (tmp_path / "BENCH_ablation_wide.json").write_text(json.dumps({
        "schema_version": 2,
        "grid": "wide",
        "runs": [{"key": "baseline", "status": "ok", "digest": "d",
                  "metrics": dict.fromkeys(wide, 1.0)}],
    }))
    text = ablation_tables(str(tmp_path))
    assert "Ablation grid: toy (smoke)" in text
    assert "baseline" in text and "abc123def456"[:12] in text
    assert "ERROR" in text  # the failed run is visible, not hidden
    assert "knob importance" in text and "2.50x" in text
    assert "Ablation grid: wide (full)" in text
    assert all(metric in text for metric in wide)  # every metric, none cut


def test_ablation_tables_skips_other_schemas_and_notes_empty(tmp_path):
    assert "no BENCH_ablation_" in ablation_tables(str(tmp_path))
    (tmp_path / "BENCH_ablation_x.json").write_text(
        json.dumps({"schema_version": 1})
    )
    assert "skipped" in ablation_tables(str(tmp_path))


def test_ablation_tables_skips_what_the_gate_refuses(tmp_path):
    # json.dumps writes a bare NaN, which the gate refuses as non-strict
    # JSON; the report must refuse the same file, not render "nan".
    run = {"key": "baseline", "status": "ok", "metrics": {"p99_ms": float("nan")}}
    artifact = {"schema_version": 2, "grid": "nan", "runs": [run]}
    (tmp_path / "BENCH_ablation_nan.json").write_text(json.dumps(artifact))
    text = ablation_tables(str(tmp_path))
    assert "Ablation grid" not in text
    assert "non-finite value NaN" in text and "skipped" in text


def test_preload_break_even_is_a_prediction_a_constant_can_fail(tables, calibration_matrix):
    """No +10 % step moves the count, but each step past the matrix
    named in the report does, and a +10 % of either constant does not."""
    rows, moved = calibration_matrix
    label = "headline_figures: preload break-even (distinct FindNSMs, a count)"
    assert label in rows and not any(label in hit for hit in moved.values())
    count = next(
        row.measured for row in tables["headline_figures"].rows
        if row.label.startswith("preload break-even")
    )
    assert all(moved_count != count for moved_count in report.break_even_steps())
    for name, _factor in report.BREAK_EVEN_STEPS:
        for factor in (0.9, 1.1):
            scaled = getattr(DEFAULT_CALIBRATION, name) * factor
            calibration = dataclasses.replace(DEFAULT_CALIBRATION, **{name: scaled})
            assert report._preload_break_even(calibration) == count, (name, factor)
