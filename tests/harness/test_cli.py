"""The command-line interface."""

import pytest

from repro.cli import main


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
