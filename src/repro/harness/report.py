"""One-command reproduction report.

``python -m repro.harness.report [output.md]`` re-runs the headline
experiments (Tables 3.1 and 3.2, the basic-overhead figures, baselines,
preloading, equation (1)), folds in the committed ablation-grid
artifacts (``BENCH_ablation_*.json``, emitted by ``python -m repro.cli
bench``), and writes a consolidated paper-vs-measured report.  The
pytest benchmarks remain the authoritative, asserted versions; this
module is the convenience front door.
"""

from __future__ import annotations

import json
import pathlib
import sys
import typing

from repro.core.colocation import Arrangement
from repro.core.model import ColocationModel
from repro.core.names import HNSName
from repro.harness.ablation import SCHEMA_VERSION
from repro.harness.tables import ComparisonTable
from repro.workloads.scenarios import build_stack, build_testbed

FIJI = HNSName("BIND-cs", "fiji.cs.washington.edu")

#: Table 3.1 of the paper (msec): arrangement -> (miss, HNS hit, both hit)
PAPER_TABLE_3_1 = {
    Arrangement.ALL_LOCAL: (460.0, 180.0, 104.0),
    Arrangement.AGENT: (517.0, 235.0, 137.0),
    Arrangement.REMOTE_HNS: (515.0, 232.0, 140.0),
    Arrangement.REMOTE_NSMS: (509.0, 225.0, 147.0),
    Arrangement.ALL_REMOTE: (547.0, 261.0, 181.0),
}

#: Table 3.2 of the paper (msec): records -> (miss, marshalled hit,
#: demarshalled hit)
PAPER_TABLE_3_2 = {1: (20.23, 11.11, 0.83), 6: (32.34, 26.17, 1.22)}


def _run(env, gen):
    return env.run(until=env.process(gen))


def _timed(env, gen) -> float:
    start = env.now
    _run(env, gen)
    return env.now - start


def measure_table_3_1_row(
    arrangement: Arrangement, seed: int = 3
) -> typing.Tuple[float, float, float]:
    """(miss, HNS hit, both hit) simulated ms for one arrangement."""
    testbed = build_testbed(seed=seed)
    stack = build_stack(testbed, arrangement)
    env = testbed.env

    def one():
        return stack.importer.import_binding("DesiredService", FIJI)

    stack.flush_all_caches()
    a = _timed(env, one())
    stack.flush_nsm_caches()
    b = _timed(env, one())
    c = _timed(env, one())
    return a, b, c


def table_3_1(seed: int = 3) -> ComparisonTable:
    """Re-measure all fifteen Table 3.1 cells."""
    table = ComparisonTable("Table 3.1 — HRPC binding by colocation arrangement")
    for arrangement in Arrangement:
        for label, paper, measured in zip(
            ("miss", "HNS hit", "both hit"),
            PAPER_TABLE_3_1[arrangement],
            measure_table_3_1_row(arrangement, seed),
        ):
            table.add(f"{arrangement.label} / {label}", paper, measured)
    return table


def table_3_2(seed: int = 31) -> ComparisonTable:
    """Re-measure the Table 3.2 cache-format grid."""
    from repro.bind.cache import CacheFormat, ResolverCache
    from repro.bind.resolver import BindResolver
    from repro.bind.rr import ResourceRecord
    from repro.bind.zone import Zone

    table = ComparisonTable("Table 3.2 — marshalling costs vs cache access speed")
    for records in (1, 6):
        measured = []
        for fmt in (None, CacheFormat.MARSHALLED, CacheFormat.DEMARSHALLED):
            testbed = build_testbed(seed=seed)
            zone = Zone("gw.net")
            for i in range(6):
                zone.add(ResourceRecord.a_record("gateway.gw.net", f"10.0.0.{i + 1}"))
            testbed.public_server.add_zone(zone)
            testbed.public_server.lookup_cost_ms = (
                testbed.calibration.meta_bind_lookup_ms
            )
            env = testbed.env
            cache = ResolverCache(
                env,
                fmt=fmt or CacheFormat.DEMARSHALLED,
                calibration=testbed.calibration,
            )
            resolver = BindResolver(
                testbed.client,
                testbed.udp,
                testbed.public_endpoint,
                marshalling="generated",
                cache=cache,
                calibration=testbed.calibration,
            )
            name = "fiji.cs.washington.edu" if records == 1 else "gateway.gw.net"
            first = _timed(env, resolver.lookup(name))
            second = _timed(env, resolver.lookup(name))
            measured.append(first if fmt is None else second)
        for label, p, m in zip(
            ("miss", "marshalled hit", "demarshalled hit"), PAPER_TABLE_3_2[records], measured
        ):
            table.add(f"{records} RR / {label}", p, m)
    return table


def headline_figures(seed: int = 41) -> ComparisonTable:
    """Re-measure the prose component costs of Section 3."""
    from repro.bind.resolver import BindResolver
    from repro.clearinghouse.client import ClearinghouseClient
    from repro.workloads.scenarios import CREDENTIALS

    table = ComparisonTable("Headline component costs")
    testbed = build_testbed(seed=seed)
    env = testbed.env
    resolver = BindResolver(
        testbed.client, testbed.udp, testbed.public_endpoint,
        calibration=testbed.calibration,
    )
    table.add(
        "native BIND lookup",
        27.0,
        _timed(env, resolver.lookup_address("fiji.cs.washington.edu")),
    )
    ch = ClearinghouseClient(
        testbed.client, testbed.tcp, testbed.ch_endpoint, CREDENTIALS
    )
    table.add(
        "native Clearinghouse lookup",
        156.0,
        _timed(env, ch.lookup_address("dlion:hcs:uw")),
    )
    hns = testbed.make_hns(testbed.client)
    table.add(
        "FindNSM cold (six mappings)",
        287.7,
        _timed(env, hns.find_nsm(FIJI, "HRPCBinding")),
    )
    table.add(
        "FindNSM cached", 7.0, _timed(env, hns.find_nsm(FIJI, "HRPCBinding"))
    )
    hns2 = testbed.make_hns(testbed.client)
    table.add("cache preload (zone transfer)", 390.0, _timed(env, hns2.preload()))
    return table


def equation_1() -> str:
    """The equation (1) thresholds, rendered."""
    hns = ColocationModel(33, 547, 261)
    nsm = ColocationModel(33, 225, 147)
    return (
        f"equation (1): remote HNS needs q > {100 * hns.q_threshold():.1f}% "
        f"(paper ~11%); remote NSMs need q > {100 * nsm.q_threshold():.1f}% "
        "(paper ~42%)"
    )


#: Metric display order for the ablation tables; anything else a grid
#: reports follows alphabetically.
_ABLATION_METRIC_ORDER = (
    "p50_ms",
    "p99_ms",
    "availability",
    "meta_queries_per_find",
    "staleness_ms_max",
    "storm_round_trips",
)


def _ablation_columns(runs: typing.Sequence[typing.Mapping[str, object]]) -> typing.List[str]:
    present: typing.Set[str] = set()
    for run in runs:
        metrics = run.get("metrics")
        if isinstance(metrics, dict):
            present.update(metrics)
    ordered = [m for m in _ABLATION_METRIC_ORDER if m in present]
    ordered += sorted(present - set(ordered))
    return ordered[:6]


def _fmt_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def ablation_tables(directory: typing.Optional[str] = None) -> str:
    """Render every committed ``BENCH_ablation_*.json`` as a table.

    One table per grid artifact: a row per run (baseline first, in the
    engine's expansion order) and, below it, the per-knob importance
    summary (p99 ratio vs baseline).  Artifacts with an unexpected
    schema version are skipped with a note rather than failing the
    report.
    """
    base = pathlib.Path(directory) if directory else pathlib.Path(".")
    sections: typing.List[str] = []
    for path in sorted(base.glob("BENCH_ablation_*.json")):
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except ValueError:
            sections.append(f"({path.name}: unreadable, skipped)")
            continue
        if not isinstance(data, dict) or data.get("schema_version") != SCHEMA_VERSION:
            sections.append(
                f"({path.name}: schema_version != {SCHEMA_VERSION}, skipped)"
            )
            continue
        runs = [r for r in data.get("runs", []) if isinstance(r, dict)]
        shape = "smoke" if data.get("smoke") else "full"
        columns = _ablation_columns(runs)
        lines = [f"== Ablation grid: {data.get('grid', '?')} ({shape}) =="]
        header = ["run"] + columns + ["digest"]
        lines.append(" | ".join(header))
        lines.append("-+-".join("-" * len(h) for h in header))
        for run in runs:
            metrics = run.get("metrics") or {}
            digest = run.get("digest") or ""
            cells = [str(run.get("key", "?"))]
            if run.get("status") == "ok":
                cells += [
                    _fmt_cell(metrics.get(column, "")) for column in columns
                ]
                cells.append(str(digest)[:12])
            else:
                cells += ["ERROR"] * len(columns) + ["-"]
            lines.append(" | ".join(cells))
        importance = data.get("importance")
        importance_lines: typing.List[str] = []
        if isinstance(importance, dict):
            for key in sorted(importance):
                entry = importance[key]
                if not isinstance(entry, dict):
                    continue
                # Lead with the tail metric when the grid reports one,
                # else the grid's dominant headline metric.
                for metric in ("p99_ms", "staleness_ms_max", "storm_round_trips"):
                    score = entry.get(metric)
                    if isinstance(score, dict):
                        break
                else:
                    continue
                ratio = score.get("ratio")
                delta = score.get("delta")
                ratio_text = (
                    f"{ratio:.2f}x" if isinstance(ratio, (int, float)) else "n/a"
                )
                importance_lines.append(
                    f"  {key:<24} {metric} {ratio_text} "
                    f"({delta:+.2f} vs baseline)"
                )
        if importance_lines:
            lines.append("")
            lines.append("knob importance vs baseline:")
            lines.extend(importance_lines)
        sections.append("\n".join(lines))
    if not sections:
        sections.append(
            "(no BENCH_ablation_*.json artifacts found; run "
            "`python -m repro.cli bench all` to generate them)"
        )
    return "\n\n".join(sections)


def generate_report(ablation_dir: typing.Optional[str] = None) -> str:
    """The full report as markdown text."""
    sections = [
        "# HNS reproduction report",
        "",
        "All values in simulated milliseconds; see EXPERIMENTS.md for the "
        "asserted tolerances and the discussion of the paper's own "
        "internal inconsistencies.",
        "",
        "This file is a generated artifact: regenerate it with "
        "`PYTHONPATH=src python -m repro.harness.report RESULTS.md`.  The "
        "ablation tables below read the committed "
        "`BENCH_ablation_*.json` artifacts (emitted by `python -m "
        "repro.cli bench`), which double as the CI perf gate's "
        "baselines (`python -m repro.harness.gate`).",
        "",
        table_3_1().render(),
        "",
        table_3_2().render(),
        "",
        headline_figures().render(),
        "",
        equation_1(),
        "",
        ablation_tables(ablation_dir),
        "",
    ]
    return "\n".join(sections)


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    """Print the report, or write it to the given path."""
    argv = list(sys.argv[1:] if argv is None else argv)
    report = generate_report()
    if argv:
        with open(argv[0], "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        print(f"wrote {argv[0]}")
    else:
        print(report)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
