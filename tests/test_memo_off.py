"""Memos are invisible: a run with every memo empty reads, line for line,
what the same run reads with them.

Every memo under ``src/repro`` is built by :mod:`repro.memo` and saves
the host work only; the simulation is charged as if the work were done
every time.  So a child interpreter that sets ``repro.memo.MEMO_SIZE =
0`` before it imports anything else is an oracle that needs no
specification of the world: each run's canonical lines must equal this
process's.  Compared here, as one sha256 per run (:func:`memo_off` and
:func:`assert_memo_off_reads_the_same`, which the FIFO schedules of
``tests/bind/test_follow_exhaustive.py`` use too, beside the runs they
already make):

- the registered scenarios at seed 0;
- every smoke cell of the gated grids, its row without wall-clock fields;
- one name asked under two rtypes through one resolver, before and after
  a write to each (no other world asks one name under two rtypes, and a
  resolver's query slots are keyed by both).

The child runs while this process computes its own side.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import typing

import repro
from repro.analysis.determinism import run_lines
from repro.bind import (
    BindResolver,
    BindServer,
    DomainName,
    NameNotFound,
    ResourceRecord,
    RRType,
    UpdateMode,
    UpdateOp,
    Zone,
)
from repro.harness.ablation import WALL_CLOCK_FIELDS, AblationStudy, study_payload
from repro.harness.calibration import DEFAULT_CALIBRATION as CAL
from repro.harness.grids import GRIDS
from repro.net import DatagramTransport, Internetwork
from repro.sim import ConstantLatency, Environment
from repro.workloads.scenarios import SCENARIOS

ROOT = pathlib.Path(__file__).resolve().parents[1]
NAME = "x.ctx.hns"


def two_rtypes() -> Environment:
    """One resolver, no cache: ``NAME`` under A and under UNSPEC, each
    read twice, and under TXT, which it lacks; then both record sets
    rewritten with more records and all read again."""
    env = Environment(seed=5)
    env.trace.enabled = True
    net = Internetwork(env)
    segment = net.add_segment(latency=ConstantLatency(CAL.wire_base_ms, CAL.wire_per_byte_ms))
    udp = DatagramTransport(net)
    zone = Zone("hns")
    zone.add(ResourceRecord.a_record(NAME, "10.0.0.1"))
    zone.add(ResourceRecord.text_record(NAME, "one", rtype=RRType.UNSPEC))
    server = BindServer(net.add_host("ns", segment), zones=[zone], allow_dynamic_update=True)
    endpoint = server.listen()
    reader = BindResolver(net.add_host("reader", segment), udp, endpoint, name="reader")
    writer = BindResolver(net.add_host("writer", segment), udp, endpoint).primary

    def read() -> typing.Generator:
        for rtype in (RRType.A, RRType.UNSPEC, RRType.A, RRType.UNSPEC, RRType.TXT):
            try:
                records = yield from reader.lookup(NAME, rtype)
            except NameNotFound:
                records = []
            env.trace.emit("read", f"{NAME} {rtype}", records=[str(r) for r in records])

    def drive() -> typing.Generator:
        yield from read()
        yield from writer.update_batch([
            UpdateOp(UpdateMode.ADD, DomainName(NAME), RRType.A,
                     records=(ResourceRecord.a_record(NAME, "10.0.0.2"),)),
            UpdateOp(UpdateMode.REPLACE, DomainName(NAME), RRType.UNSPEC, records=tuple(
                ResourceRecord.text_record(NAME, text, rtype=RRType.UNSPEC)
                for text in ("two", "three")
            )),
        ])
        yield from read()

    env.run(until=env.process(drive()))
    return env


def digest(lines: typing.List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def digests() -> typing.Dict[str, str]:
    """Run name -> its :func:`digest`, in this process."""
    out = {}
    for name, builder in sorted(SCENARIOS.items()):
        out[f"scenario {name}"] = digest(run_lines(builder(0)))
    for grid, definition in sorted(GRIDS.items()):
        study = AblationStudy(definition, smoke=True)
        for row in study_payload(study, study.execute(study.expand()), 0.0)["runs"]:
            kept = {key: value for key, value in row.items() if key not in WALL_CLOCK_FIELDS}
            out[f"grid {grid} {row['key']}"] = digest([json.dumps(kept, sort_keys=True)])
    out["two rtypes"] = digest(run_lines(two_rtypes()))
    return out


def memo_off(function: str) -> subprocess.Popen:
    """Start a child interpreter that empties every memo and then prints
    ``function()`` (``"module:name"``, returning JSON data) as JSON."""
    module, name = function.split(":")
    code = (
        "import repro.memo; repro.memo.MEMO_SIZE = 0\n"
        f"import json, {module} as m; print(json.dumps(m.{name}()))"
    )
    path = os.pathsep.join([str(pathlib.Path(repro.__file__).parents[1]), str(ROOT)])
    return subprocess.Popen(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=path),
        stdout=subprocess.PIPE,
        text=True,
    )


def assert_memo_off_reads_the_same(child: subprocess.Popen, memo_on: typing.Dict[str, str]):
    """``child``'s (:func:`memo_off`) digests equal ``memo_on``, run for run."""
    out, _ = child.communicate(timeout=300)
    assert child.returncode == 0
    memo_off = json.loads(out)
    differ = [name for name in memo_on.keys() | memo_off.keys()
              if memo_on.get(name) != memo_off.get(name)]
    assert not differ, sorted(differ)[:10]


def test_memo_off_runs_read_as_memo_on_runs():
    with memo_off("tests.test_memo_off:digests") as child:
        assert_memo_off_reads_the_same(child, digests())
