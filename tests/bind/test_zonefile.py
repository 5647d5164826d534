"""Master-file parsing and rendering."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bind import (
    NameNotFound,
    RRType,
    Zone,
    ZoneFileError,
    load_zone_file,
    parse_zone_text,
    render_zone_text,
)
from repro.bind.rr import ResourceRecord

SAMPLE = """
; the cs.washington.edu zone
$ORIGIN cs.washington.edu
$TTL 3600000
fiji        3600000  A      128.95.1.4
june                 A      128.95.1.99
schwartz             TXT    "mailhost=june.cs.washington.edu;mailbox=schwartz"
meta                 UNSPEC "ns=BIND-cs"
@                    TXT    "the origin itself"
www                  CNAME  "fiji.cs.washington.edu"
fiji.cs.washington.edu. TXT "absolute in-zone name"
"""

OUT_OF_ZONE = SAMPLE + "outside.example.com. A 10.0.0.1\n"


def test_parse_sample():
    zone = parse_zone_text(SAMPLE)
    assert str(zone.origin) == "cs.washington.edu"
    assert zone.lookup("fiji.cs.washington.edu", RRType.A)[0].address == "128.95.1.4"
    assert zone.lookup("june.cs.washington.edu", RRType.A)[0].ttl == 3_600_000
    txt = zone.lookup("schwartz.cs.washington.edu", RRType.TXT)[0].text
    assert ";" in txt  # semicolons inside quotes are data, not comments
    assert zone.lookup("cs.washington.edu", RRType.TXT)[0].text == "the origin itself"
    assert zone.lookup("meta.cs.washington.edu", RRType.UNSPEC)


def test_absolute_names_rejected_outside_zone():
    with pytest.raises(ValueError):
        parse_zone_text(OUT_OF_ZONE)  # the Zone enforces containment


def test_absolute_in_zone_name_accepted():
    zone = parse_zone_text(SAMPLE)
    assert zone.lookup("fiji.cs.washington.edu", RRType.TXT)[0].text == (
        "absolute in-zone name"
    )
    assert zone.record_count == 7


def test_ttl_is_optional_per_record():
    zone = parse_zone_text("$ORIGIN z\n$TTL 500\na A 1.2.3.4\nb 900 A 1.2.3.5\n")
    assert zone.lookup("a.z", RRType.A)[0].ttl == 500
    assert zone.lookup("b.z", RRType.A)[0].ttl == 900


def test_default_origin_argument():
    zone = parse_zone_text("a A 1.2.3.4\n", default_origin="z")
    assert zone.lookup("a.z", RRType.A)


@pytest.mark.parametrize(
    "bad,fragment",
    [
        ("a A 1.2.3.4", "before any \\$ORIGIN"),
        ("$ORIGIN z\na A", "needs"),
        ("$ORIGIN z\na MX 10 mail", "unsupported type"),
        ("$ORIGIN z\na A 1.2.3.4 5.6.7.8", "one address"),
        ("$ORIGIN z\n$TTL abc", "bad TTL"),
        ("$ORIGIN", "exactly one name"),
        ("$ORIGIN z\na A 999.1.1.1", "range"),
    ],
)
def test_malformed_files_rejected(bad, fragment):
    with pytest.raises(ZoneFileError, match=fragment):
        parse_zone_text(bad)


def test_error_carries_line_number():
    try:
        parse_zone_text("$ORIGIN z\n\na BOGUS x\n")
    except ZoneFileError as err:
        assert err.line_number == 3
    else:  # pragma: no cover
        pytest.fail("expected ZoneFileError")


def test_render_roundtrip():
    zone = parse_zone_text(SAMPLE)
    rendered = render_zone_text(zone)
    reparsed = parse_zone_text(rendered)
    assert {(str(r.name), r.rtype, r.data) for r in zone.all_records()} == {
        (str(r.name), r.rtype, r.data) for r in reparsed.all_records()
    }


def test_a_loaded_zone_is_one_version_with_an_empty_journal():
    """The load's adds are not updates: IXFR from serial 1 carries only
    what changed after it, and earlier serials fall back to AXFR."""
    zone = parse_zone_text(SAMPLE)
    assert zone.serial == 1
    assert zone.delta_since(0) is None
    zone.add(ResourceRecord.a_record("new.cs.washington.edu", "128.95.1.5"))
    assert [d.serial for d in zone.delta_since(1)] == [2]


def test_load_zone_file(tmp_path):
    path = tmp_path / "cs.zone"
    path.write_text("$ORIGIN z\nhost A 10.0.0.1\n")
    zone = load_zone_file(str(path))
    assert zone.lookup("host.z", RRType.A)[0].address == "10.0.0.1"


def test_loaded_zone_serves_through_bind():
    """A file-described zone works end-to-end through a server."""
    from repro.bind import BindResolver, BindServer
    from repro.net import DatagramTransport, Internetwork
    from repro.sim import Environment

    env = Environment(seed=12)
    net = Internetwork(env)
    client = net.add_host("c")
    server_host = net.add_host("s")
    zone = parse_zone_text("$ORIGIN filetest.edu\nbox A 10.1.1.1\n")
    server = BindServer(server_host, zones=[zone])
    ep = server.listen()
    resolver = BindResolver(client, DatagramTransport(net), ep)
    address = env.run(
        until=env.process(resolver.lookup_address("box.filetest.edu"))
    )
    assert address == "10.1.1.1"


@given(
    st.lists(
        st.tuples(
            st.from_regex(r"[a-z][a-z0-9]{0,6}", fullmatch=True),
            st.tuples(*[st.integers(min_value=0, max_value=255)] * 4),
        ),
        min_size=1,
        max_size=10,
        unique_by=lambda t: t[0],
    )
)
@settings(max_examples=30, deadline=None)
def test_render_parse_roundtrip_property(entries):
    zone = Zone("prop.test")
    for name, quad in entries:
        zone.add(
            ResourceRecord.a_record(
                f"{name}.prop.test", ".".join(str(o) for o in quad)
            )
        )
    reparsed = parse_zone_text(render_zone_text(zone))
    assert reparsed.record_count == zone.record_count
    for name, quad in entries:
        record = reparsed.lookup(f"{name}.prop.test", RRType.A)[0]
        assert record.address == ".".join(str(o) for o in quad)
