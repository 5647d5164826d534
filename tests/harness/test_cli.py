"""The command-line interface."""

import ast
import pathlib
import types

import pytest

import repro.cli
from repro.cli import main
from repro.sim import SimulationError


def test_import_command(capsys):
    assert main(["import", "DesiredService", "BIND-cs::fiji.cs.washington.edu"]) == 0
    out = capsys.readouterr().out
    assert "DesiredService" in out
    assert "sunrpc" in out
    assert "simulated ms" in out


def test_resolve_hostaddress(capsys):
    assert main(["resolve", "BIND-cs::fiji.cs.washington.edu", "HostAddress"]) == 0
    out = capsys.readouterr().out
    assert "address:" in out
    assert "HostAddress-BIND-cs" in out


def test_resolve_mailbox_on_clearinghouse(capsys):
    assert main(["resolve", "CH-hcs::levy:hcs:uw", "MailboxLocation"]) == 0
    out = capsys.readouterr().out
    assert "mail_host:" in out and "dlion:hcs:uw" in out


def test_resolve_binding_with_service(capsys):
    assert (
        main(
            [
                "resolve",
                "CH-hcs::dlion:hcs:uw",
                "HRPCBinding",
                "--service",
                "PrintService",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "courier" in out


def test_table31_command(capsys):
    assert main(["table31"]) == 0
    out = capsys.readouterr().out
    assert "Table 3.1" in out
    assert "[Client, HNS, NSMs]" in out
    assert "460" in out


def test_trace_command(capsys):
    assert main(["trace", "DesiredService", "BIND-cs::fiji.cs.washington.edu"]) == 0
    out = capsys.readouterr().out
    assert "FindNSM" in out
    assert "=> HRPCBinding" in out


def test_seed_flag(capsys):
    assert main(["import", "--seed", "9", "DesiredService",
                 "BIND-cs::fiji.cs.washington.edu"]) == 0


@pytest.mark.parametrize(
    "argv",
    [["--seed", "5", "table31"], ["table31", "--seed", "5"], ["--seed", "5", "list"]],
)
def test_seed_is_an_option_only_of_the_commands_that_read_it(argv, capsys):
    """``table31`` builds no testbed of its own, so a seed given to it
    (or before any command) would be ignored: it is a usage error."""
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert capsys.readouterr().err.startswith("usage: repro.cli")


def test_bad_query_class_rejected():
    with pytest.raises(SystemExit):
        main(["resolve", "BIND-cs::x", "Astrology"])


def test_missing_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_unknown_grid_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "nosuch"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'nosuch'" in err
    for grid in ("fast_path", "replica_scheduling", "update_path", "discovery", "all"):
        assert grid in err


def test_a_command_that_never_finishes_stops_at_the_horizon(monkeypatch):
    """Each command drives its process through ``run_process``: an
    import that polls for ever fails at the run's horizon."""

    def never_answering(testbed):
        env = testbed.env

        def import_binding(_service, _name):
            while True:
                yield env.timeout(1_000.0)

        return types.SimpleNamespace(
            importer=types.SimpleNamespace(import_binding=import_binding)
        )

    monkeypatch.setattr(repro.cli, "_stack_with_all_nsms", never_answering)
    with pytest.raises(SimulationError, match="'do' still pending"):
        main(["import", "DesiredService", "BIND-cs::fiji.cs.washington.edu"])


def test_no_command_runs_a_process_unbounded():
    """No ``env.run(until=env.process(...))`` in ``repro/cli.py``: a
    bare run has no horizon, so a poll that never succeeds spins."""
    source = pathlib.Path(repro.cli.__file__).read_text()
    bare = [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "run"
        and any(
            isinstance(k.value, ast.Call)
            and isinstance(k.value.func, ast.Attribute)
            and k.value.func.attr == "process"
            for k in node.keywords
        )
    ]
    assert bare == []
