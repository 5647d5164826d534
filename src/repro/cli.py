"""Command-line interface: poke the simulated HNS from a shell.

Usage (after ``pip install -e .``)::

    python -m repro.cli import DesiredService "BIND-cs::fiji.cs.washington.edu"
    python -m repro.cli resolve "CH-hcs::levy:hcs:uw" MailboxLocation
    python -m repro.cli table31
    python -m repro.cli trace PrintService "CH-hcs::dlion:hcs:uw"

Every command stands up the canned HCS testbed, performs the requested
operation in simulated time, and prints what the paper's user would
have seen.
"""

from __future__ import annotations

import argparse
import sys
import typing

from repro.core import Arrangement, HNSName, LocalNsmBinding, nsms
from repro.workloads import build_stack, build_testbed


def _stack_with_all_nsms(testbed):
    """An ALL_LOCAL stack plus every NSM type linked in."""
    stack = build_stack(testbed, Arrangement.ALL_LOCAL)
    for nsm_class in (
        nsms.ClearinghouseBindingNSM,
        nsms.BindHostAddressNSM,
        nsms.ClearinghouseHostAddressNSM,
        nsms.BindMailboxNSM,
        nsms.ClearinghouseMailboxNSM,
        nsms.BindFileServiceNSM,
        nsms.ClearinghouseFileServiceNSM,
    ):
        nsm = testbed.make_nsm(nsm_class, testbed.client)
        stack.hns.link_local_nsm(nsm)
        stack.importer.nsm_stub.link_local(nsm)
    return stack


def cmd_import(args: argparse.Namespace) -> int:
    """``import``: HRPC Import through the HNS."""
    testbed = build_testbed(seed=args.seed)
    stack = _stack_with_all_nsms(testbed)
    env = testbed.env
    name = HNSName.parse(args.hns_name)

    def do():
        start = env.now
        binding = yield from stack.importer.import_binding(args.service, name)
        return binding, env.now - start

    binding, elapsed = env.run(until=env.process(do()))
    print(binding.describe())
    print(f"resolved in {elapsed:.1f} simulated ms (cold caches)")
    return 0


def cmd_resolve(args: argparse.Namespace) -> int:
    """``resolve``: FindNSM plus the NSM query."""
    testbed = build_testbed(seed=args.seed)
    stack = _stack_with_all_nsms(testbed)
    env = testbed.env
    name = HNSName.parse(args.hns_name)
    params: typing.Dict[str, object] = {}
    if args.service:
        params["service"] = args.service

    def do():
        start = env.now
        nsm_binding = yield from stack.hns.find_nsm(name, args.query_class)
        which = (
            nsm_binding.nsm.name
            if isinstance(nsm_binding, LocalNsmBinding)
            else nsm_binding.program
        )
        result = yield from stack.importer.nsm_stub.call(
            nsm_binding, name, **params
        )
        return which, result, env.now - start

    which, result, elapsed = env.run(until=env.process(do()))
    print(f"NSM:    {which}")
    for field, value in sorted(result.value.items(), key=lambda kv: kv[0]):
        print(f"{field + ':':<8}{value}")
    print(f"[{elapsed:.1f} simulated ms, cold caches]")
    return 0


def cmd_table31(args: argparse.Namespace) -> int:
    """``table31``: regenerate Table 3.1 against the paper."""
    from repro.harness.report import table_3_1

    print(table_3_1(seed=args.seed).render())
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``trace``: a traced Import (Figure 2.1 style).

    Beyond the event log, span tracing (:mod:`repro.obs`) renders the
    causal tree and the critical path of the import, and ``--json`` /
    ``--perfetto`` export the spans for offline analysis (the Perfetto
    file loads in ``ui.perfetto.dev`` or ``chrome://tracing``).
    """
    from repro.obs import (
        CriticalPath,
        render_trace,
        write_chrome_trace,
        write_json,
    )

    testbed = build_testbed(seed=args.seed)
    stack = _stack_with_all_nsms(testbed)
    env = testbed.env
    env.trace.enabled = True
    # Enable after build: registration traffic stays out of the trace.
    env.obs.enable()
    name = HNSName.parse(args.hns_name)

    def do():
        binding = yield from stack.importer.import_binding(args.service, name)
        return binding

    binding = env.run(until=env.process(do()))
    for record in env.trace.records:
        print(record)
    roots = env.obs.roots()
    if roots:
        spans = env.obs.trace_spans(roots[0].trace_id)
        path = CriticalPath.from_trace(spans)
        print()
        print(render_trace(spans, critical_path=path))
        print()
        print(path.render())
    if args.json_path:
        count = write_json(env.obs, args.json_path)
        print(f"wrote {count} spans to {args.json_path}")
    if args.perfetto_path:
        count = write_chrome_trace(env.obs, args.perfetto_path)
        print(f"wrote {count} trace events to {args.perfetto_path}")
    print(f"=> {binding.describe()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="Drive the simulated HCS Name Service (SOSP 1987 reproduction).",
    )
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p_import = sub.add_parser("import", help="HRPC Import through the HNS")
    p_import.add_argument("service", help="service name, e.g. DesiredService")
    p_import.add_argument("hns_name", help="HNS name, e.g. 'BIND-cs::fiji.cs.washington.edu'")
    p_import.set_defaults(func=cmd_import)

    p_resolve = sub.add_parser("resolve", help="FindNSM + NSM query")
    p_resolve.add_argument("hns_name")
    p_resolve.add_argument(
        "query_class",
        choices=["HRPCBinding", "HostAddress", "MailboxLocation", "FileService"],
    )
    p_resolve.add_argument("--service", default="", help="for HRPCBinding queries")
    p_resolve.set_defaults(func=cmd_resolve)

    p_table = sub.add_parser("table31", help="regenerate Table 3.1")
    p_table.set_defaults(func=cmd_table31)

    p_trace = sub.add_parser("trace", help="traced Import (Figure 2.1 style)")
    p_trace.add_argument("service")
    p_trace.add_argument("hns_name")
    p_trace.add_argument(
        "--json", dest="json_path", default="", help="write spans as JSON"
    )
    p_trace.add_argument(
        "--perfetto",
        dest="perfetto_path",
        default="",
        help="write a Chrome trace_event file (ui.perfetto.dev)",
    )
    p_trace.set_defaults(func=cmd_trace)

    p_list = sub.add_parser("list", help="browse the registered federation")
    p_list.set_defaults(func=cmd_list)

    p_bench = sub.add_parser(
        "bench", help="run an ablation grid over a process pool"
    )
    p_bench.add_argument(
        "grid",
        help="grid name (fast_path, replica_scheduling, update_path, toy) or 'all'",
    )
    p_bench.add_argument(
        "--jobs",
        type=int,
        default=0,
        help="worker processes (default: all cores; 1 = run inline)",
    )
    p_bench.add_argument(
        "--smoke",
        action="store_true",
        help="reduced configuration (the shape of the committed baselines)",
    )
    p_bench.add_argument(
        "--full-grid",
        action="store_true",
        help="run the full cartesian knob product, not just one-offs",
    )
    p_bench.add_argument(
        "--out-dir", default=".", help="where BENCH_ablation_*.json lands"
    )
    p_bench.add_argument(
        "--grid-seed",
        type=int,
        default=None,
        help="override the grid's base seed",
    )
    p_bench.set_defaults(func=cmd_bench)
    return parser


def cmd_bench(args: argparse.Namespace) -> int:
    """``bench``: run one (or every) ablation grid, fanned over processes.

    Expands the grid (baseline + one-off ablations, ``--full-grid`` for
    the cartesian product), executes the runs over a process pool, and
    writes the schema-v2 ``BENCH_ablation_<grid>.json`` artifact the CI
    perf gate (:mod:`repro.harness.gate`) consumes.  Identical
    artifacts at every ``--jobs`` setting, wall-clock fields aside.
    """
    import os
    import pathlib

    from repro.harness.ablation import (
        AblationStudy,
        now_wall,
        study_payload,
        write_payload,
    )
    from repro.harness.grids import GATED_GRIDS, GRIDS

    names = GATED_GRIDS if args.grid == "all" else (args.grid,)
    jobs = args.jobs if args.jobs else (os.cpu_count() or 1)
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    failed = 0
    for name in names:
        grid = GRIDS[name]
        study = AblationStudy(grid, smoke=args.smoke, seed=args.grid_seed)
        specs = study.expand(full_grid=args.full_grid)
        started = now_wall()
        results = study.execute(specs, jobs=jobs)
        wall_s = now_wall() - started
        payload = study_payload(
            study, results, jobs=jobs, wall_s=wall_s, cpus=os.cpu_count()
        )
        path = out_dir / f"BENCH_ablation_{name}.json"
        write_payload(str(path), payload)
        mode = "smoke" if args.smoke else "full"
        print(
            f"grid {name} ({mode}): {len(results)} runs, jobs={jobs}, "
            f"{wall_s:.1f} s -> {path}"
        )
        for result in results:
            if not result.ok:
                failed += 1
                tail = (result.error or "").splitlines()
                print(f"  {result.spec.key:<28} ERROR: {tail[-1] if tail else '?'}")
                continue
            shown = ", ".join(
                f"{metric}=" + ("n/a" if value is None else f"{value:.4g}")
                for metric, value in sorted(result.metrics.items())
            )
            print(f"  {result.spec.key:<28} {shown}")
        importance = study.importance(results)
        for key in sorted(importance):
            deltas = ", ".join(
                f"{metric} {entry['delta']:+.4g}"
                for metric, entry in sorted(importance[key].items())
                if metric in ("p50_ms", "p99_ms", "availability", "meta_queries_per_find")
            )
            if deltas:
                print(f"  Δ {key:<26} {deltas}")
    return 1 if failed else 0


def cmd_list(args: argparse.Namespace) -> int:
    """``list``: browse the registered federation."""
    testbed = build_testbed(seed=args.seed)
    metastore = testbed.make_metastore(testbed.client)
    env = testbed.env
    listing = env.run(until=env.process(metastore.directory()))
    print(listing.render())
    return 0


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
