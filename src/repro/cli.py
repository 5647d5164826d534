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
from repro.harness.grids import GRIDS
from repro.sim import run_process
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

    binding, elapsed = run_process(env, do())
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

    which, result, elapsed = run_process(env, do())
    print(f"NSM:    {which}")
    for field, value in sorted(result.value.items(), key=lambda kv: kv[0]):
        print(f"{field + ':':<8}{value}")
    print(f"[{elapsed:.1f} simulated ms, cold caches]")
    return 0


def cmd_table31(args: argparse.Namespace) -> int:
    """``table31``: regenerate Table 3.1 against the paper."""
    from repro.harness.report import table_3_1

    print(table_3_1().render())
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

    binding = run_process(env, do())
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
    sub = parser.add_subparsers(dest="command", required=True)
    # Only the commands that build a testbed take a seed: on any other
    # it would be ignored, so there it is a usage error.
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="simulation seed")

    p_import = sub.add_parser(
        "import", parents=[seeded], help="HRPC Import through the HNS"
    )
    p_import.add_argument("service", help="service name, e.g. DesiredService")
    p_import.add_argument("hns_name", help="HNS name, e.g. 'BIND-cs::fiji.cs.washington.edu'")
    p_import.set_defaults(func=cmd_import)

    p_resolve = sub.add_parser("resolve", parents=[seeded], help="FindNSM + NSM query")
    p_resolve.add_argument("hns_name")
    p_resolve.add_argument(
        "query_class",
        choices=["HRPCBinding", "HostAddress", "MailboxLocation", "FileService"],
    )
    p_resolve.add_argument("--service", default="", help="for HRPCBinding queries")
    p_resolve.set_defaults(func=cmd_resolve)

    p_table = sub.add_parser("table31", help="regenerate Table 3.1")
    p_table.set_defaults(func=cmd_table31)

    p_trace = sub.add_parser(
        "trace", parents=[seeded], help="traced Import (Figure 2.1 style)"
    )
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

    p_list = sub.add_parser(
        "list", parents=[seeded], help="browse the registered federation"
    )
    p_list.set_defaults(func=cmd_list)

    p_bench = sub.add_parser("bench", help="run an ablation grid")
    p_bench.add_argument("grid", choices=(*GRIDS, "all"), help="grid name, or 'all'")
    p_bench.add_argument(
        "--smoke",
        action="store_true",
        help="reduced configuration (the shape of the committed baselines)",
    )
    p_bench.add_argument(
        "--out-dir", default=".", help="where BENCH_ablation_*.json lands"
    )
    p_bench.set_defaults(func=cmd_bench)
    return parser


def cmd_bench(args: argparse.Namespace) -> int:
    """``bench``: run one (or every) ablation grid.

    Expands the grid (baseline + one-off ablations + extras), runs it,
    writes the schema-v2 ``BENCH_ablation_<grid>.json`` artifact the CI
    perf gate (:mod:`repro.harness.gate`) consumes, and prints the
    report's table of it.  Exit 1 when any run errored.
    """
    import pathlib

    from repro.harness.ablation import (
        AblationStudy,
        now_wall,
        study_payload,
        write_payload,
    )
    from repro.harness.report import ablation_table

    names = tuple(GRIDS) if args.grid == "all" else (args.grid,)
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    failed = 0
    for name in names:
        study = AblationStudy(GRIDS[name], smoke=args.smoke)
        started = now_wall()
        results = study.execute()
        wall_s = now_wall() - started
        path = out_dir / f"BENCH_ablation_{name}.json"
        write_payload(str(path), study_payload(study, results, wall_s=wall_s))
        failed += sum(not result.ok for result in results)
        print(f"{len(results)} runs, {wall_s:.1f} s -> {path}")
        print(ablation_table(path), end="\n\n")
    return 1 if failed else 0


def cmd_list(args: argparse.Namespace) -> int:
    """``list``: browse the registered federation."""
    testbed = build_testbed(seed=args.seed)
    metastore = testbed.make_metastore(testbed.client)
    env = testbed.env
    listing = run_process(env, metastore.directory())
    print(listing.render())
    return 0


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
