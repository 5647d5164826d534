"""Domain names, resource records, zones."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bind import DomainName, NameNotFound, ResourceRecord, RRType, Zone


# ----------------------------------------------------------------------
# DomainName
# ----------------------------------------------------------------------
def test_name_parsing_and_str():
    n = DomainName("Fiji.CS.Washington.EDU")
    assert str(n) == "fiji.cs.washington.edu"
    assert n.labels == ("fiji", "cs", "washington", "edu")


def test_name_case_insensitive_equality():
    assert DomainName("A.B.C") == DomainName("a.b.c")
    assert hash(DomainName("A.B")) == hash(DomainName("a.b"))
    assert DomainName("a.b") == "A.b"


def test_root_name():
    root = DomainName("")
    assert root.is_root
    assert str(root) == "."
    with pytest.raises(ValueError):
        root.parent


def test_parent_and_child():
    n = DomainName("fiji.cs.washington.edu")
    assert n.parent == DomainName("cs.washington.edu")
    assert DomainName("cs.washington.edu").child("fiji") == n


def test_subdomain_checks():
    zone = DomainName("cs.washington.edu")
    assert DomainName("fiji.cs.washington.edu").is_subdomain_of(zone)
    assert zone.is_subdomain_of(zone)
    assert not DomainName("ee.washington.edu").is_subdomain_of(zone)
    assert zone.is_subdomain_of(DomainName(""))  # everything under root


@pytest.mark.parametrize("bad", ["a..b", ".a.", "a b.c", "x" * 64 + ".com"])
def test_invalid_names(bad):
    with pytest.raises(ValueError):
        DomainName(bad)


def test_trailing_dot_tolerated():
    assert DomainName("a.b.") == DomainName("a.b")


def test_parsing_is_memoised_and_errors_are_not():
    # same text, one validated label tuple shared by both instances
    assert DomainName("Fiji.CS.washington.edu").labels is DomainName(
        "Fiji.CS.washington.edu"
    ).labels
    for _ in range(2):
        with pytest.raises(ValueError):
            DomainName("a..b")
        with pytest.raises(ValueError):
            DomainName(("a", ""))


@given(
    st.lists(
        st.text(
            alphabet=st.characters(
                whitelist_categories=("Ll", "Nd"), max_codepoint=127
            ),
            min_size=1,
            max_size=10,
        ),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=50, deadline=None)
def test_name_roundtrip_property(labels):
    name = DomainName(".".join(labels))
    assert DomainName(str(name)) == name
    assert name.is_subdomain_of(name.parent)


# ----------------------------------------------------------------------
# ResourceRecord
# ----------------------------------------------------------------------
def test_a_record_roundtrip():
    r = ResourceRecord.a_record("fiji.cs.washington.edu", "128.95.1.4", ttl=1000)
    assert r.rtype is RRType.A
    assert r.address == "128.95.1.4"
    assert r.ttl == 1000


def test_text_record():
    r = ResourceRecord.text_record("x.hns", "BIND", rtype=RRType.UNSPEC)
    assert r.text == "BIND"
    assert r.rtype is RRType.UNSPEC


def test_record_validation():
    with pytest.raises(ValueError):
        ResourceRecord(DomainName("a"), RRType.A, -1, b"")
    with pytest.raises(ValueError):
        ResourceRecord(DomainName("a"), RRType.TXT, 0, b"x" * 257)
    with pytest.raises(TypeError):
        ResourceRecord(DomainName("a"), "A", 0, b"")  # type: ignore[arg-type]
    with pytest.raises(ValueError):
        ResourceRecord.a_record("a", "1.2.3")
    with pytest.raises(ValueError):
        ResourceRecord.a_record("a", "1.2.3.4").__class__(
            DomainName("a"), RRType.TXT, 0, b"x"
        ).address  # not an A record


def test_wire_size_includes_name_and_data():
    small = ResourceRecord.text_record("a.b", "x")
    large = ResourceRecord.text_record("a.b", "x" * 100)
    assert large.wire_size() - small.wire_size() == 99


# ----------------------------------------------------------------------
# Zone
# ----------------------------------------------------------------------
def make_zone():
    zone = Zone("cs.washington.edu")
    zone.add(ResourceRecord.a_record("fiji.cs.washington.edu", "128.95.1.4"))
    zone.add(ResourceRecord.a_record("june.cs.washington.edu", "128.95.1.5"))
    return zone


def test_zone_lookup():
    zone = make_zone()
    records = zone.lookup("fiji.cs.washington.edu", RRType.A)
    assert len(records) == 1
    assert records[0].address == "128.95.1.4"


def test_zone_lookup_missing_raises():
    zone = make_zone()
    with pytest.raises(NameNotFound):
        zone.lookup("nohost.cs.washington.edu", RRType.A)
    with pytest.raises(NameNotFound):
        zone.lookup("fiji.cs.washington.edu", RRType.TXT)


def test_zone_rejects_out_of_zone_records():
    zone = make_zone()
    with pytest.raises(ValueError):
        zone.add(ResourceRecord.a_record("x.mit.edu", "1.2.3.4"))


def test_zone_serial_bumps_on_changes():
    zone = make_zone()
    s0 = zone.serial
    zone.add(ResourceRecord.a_record("new.cs.washington.edu", "128.95.1.9"))
    assert zone.serial == s0 + 1
    zone.remove("new.cs.washington.edu", RRType.A)
    assert zone.serial == s0 + 2
    # Removing something absent does not bump.
    zone.remove("new.cs.washington.edu", RRType.A)
    assert zone.serial == s0 + 2


def test_zone_multiple_records_per_name():
    zone = Zone("gw.net")
    for i in range(6):
        zone.add(ResourceRecord.a_record("gateway.gw.net", f"10.0.0.{i + 1}"))
    records = zone.lookup("gateway.gw.net", RRType.A)
    assert len(records) == 6


def test_zone_duplicate_data_refreshes_not_duplicates():
    zone = Zone("z")
    zone.add(ResourceRecord.a_record("h.z", "1.2.3.4", ttl=100))
    zone.add(ResourceRecord.a_record("h.z", "1.2.3.4", ttl=999))
    records = zone.lookup("h.z", RRType.A)
    assert len(records) == 1
    assert records[0].ttl == 999


def test_zone_replace():
    zone = make_zone()
    new = [ResourceRecord.a_record("fiji.cs.washington.edu", "10.0.0.1")]
    zone.replace("fiji.cs.washington.edu", RRType.A, new)
    assert zone.lookup("fiji.cs.washington.edu", RRType.A)[0].address == "10.0.0.1"
    zone.replace("fiji.cs.washington.edu", RRType.A, [])
    with pytest.raises(NameNotFound):
        zone.lookup("fiji.cs.washington.edu", RRType.A)


def test_zone_replace_validates_ownership():
    zone = make_zone()
    with pytest.raises(ValueError):
        zone.replace(
            "fiji.cs.washington.edu",
            RRType.A,
            [ResourceRecord.a_record("june.cs.washington.edu", "1.1.1.1")],
        )


def test_zone_all_records_stable_order():
    zone = make_zone()
    assert zone.all_records() == zone.all_records()
    assert zone.record_count == 2
    assert zone.wire_size() > 0
    assert {str(n) for n in zone.names()} == {
        "fiji.cs.washington.edu",
        "june.cs.washington.edu",
    }


@given(st.lists(st.integers(min_value=1, max_value=254), min_size=1, max_size=30, unique=True))
@settings(max_examples=30, deadline=None)
def test_zone_count_matches_adds(hosts):
    zone = Zone("z")
    for h in hosts:
        zone.add(ResourceRecord.a_record(f"h{h}.z", f"10.0.0.{h}"))
    assert zone.record_count == len(hosts)
    assert len(zone.all_records()) == len(hosts)
