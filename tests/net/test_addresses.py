"""Address and endpoint validation."""

import pytest
from hypothesis import given, strategies as st

from repro.net import Endpoint, NetworkAddress
from repro.net.addresses import WELL_KNOWN_PORTS, AddressAllocator


def test_valid_address_roundtrip():
    addr = NetworkAddress("128.95.1.4")
    assert str(addr) == "128.95.1.4"
    assert addr.octets == (128, 95, 1, 4)
    assert addr.network == (128, 95, 1)


@pytest.mark.parametrize(
    "bad",
    ["", "1.2.3", "1.2.3.4.5", "a.b.c.d", "256.1.1.1", "1.2.3.-1", "1.2.3.999"],
)
def test_invalid_addresses_rejected(bad):
    with pytest.raises(ValueError):
        NetworkAddress(bad)


@pytest.mark.parametrize(
    "bad",
    ["١.٢.٣.٤", "01.2.3.004", "1.2.3.٤"],
    ids=["arabic-indic-digits", "leading-zeros", "one-non-ascii-octet"],
)
def test_non_canonical_spellings_rejected(bad):
    # Each of these has the octets of a valid address; accepted, it would
    # compare unequal to the canonical text and key a second table entry
    # for the same host.
    with pytest.raises(ValueError):
        NetworkAddress(bad)


def test_a_lone_zero_octet_is_canonical():
    assert NetworkAddress("0.0.0.0").octets == (0, 0, 0, 0)
    assert NetworkAddress("10.0.0.1").octets == (10, 0, 0, 1)
    with pytest.raises(ValueError):
        NetworkAddress("10.00.0.1")


@given(st.tuples(*[st.integers(min_value=0, max_value=255)] * 4))
def test_any_octet_quad_is_valid(quad):
    addr = NetworkAddress(".".join(str(o) for o in quad))
    assert addr.octets == quad


def test_addresses_are_hashable_and_ordered():
    a = NetworkAddress("128.95.1.1")
    b = NetworkAddress("128.95.1.1")
    assert a == b and hash(a) == hash(b)
    assert NetworkAddress("1.1.1.1") < NetworkAddress("2.0.0.0")


def test_endpoint_validation():
    addr = NetworkAddress("10.0.0.1")
    ep = Endpoint(addr, 53)
    assert str(ep) == "10.0.0.1:53"
    with pytest.raises(ValueError):
        Endpoint(addr, 0)
    with pytest.raises(ValueError):
        Endpoint(addr, 70000)


def test_allocator_unique_addresses():
    alloc = AddressAllocator("10.1.2")
    seen = {str(alloc.allocate()) for _ in range(254)}
    assert len(seen) == 254
    with pytest.raises(RuntimeError):
        alloc.allocate()


def test_allocator_bad_prefix():
    with pytest.raises(ValueError):
        AddressAllocator("10.1")
    with pytest.raises(ValueError):
        AddressAllocator("10.1.999")


def test_well_known_ports_distinct():
    values = list(WELL_KNOWN_PORTS.values())
    assert len(values) == len(set(values))
