"""Clearinghouse substrate: names, database, auth, client/server."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.clearinghouse import (
    AuthenticationFailed,
    CHName,
    ClearinghouseClient,
    ClearinghouseServer,
    CredentialStore,
    Credentials,
    NoSuchObject,
    NoSuchProperty,
    PropertyDatabase,
)
from repro.harness.calibration import DEFAULT_CALIBRATION
from repro.net import Internetwork, StreamTransport
from repro.sim import ConstantLatency, Environment

CAL = DEFAULT_CALIBRATION


# ----------------------------------------------------------------------
# Names
# ----------------------------------------------------------------------
def test_name_parse_and_str():
    n = CHName.parse("Fiji:HCS:UW")
    assert str(n) == "fiji:hcs:uw"


def test_name_validation():
    with pytest.raises(ValueError):
        CHName.parse("only:two")
    with pytest.raises(ValueError):
        CHName("", "d", "o")
    with pytest.raises(ValueError):
        CHName("a" * 41, "d", "o")
    with pytest.raises(ValueError):
        CHName("a:b", "d", "o")


def test_name_equality_case_insensitive():
    assert CHName.parse("A:B:C") == CHName.parse("a:b:c")


@given(
    st.text(alphabet=st.characters(whitelist_categories=("Ll",), max_codepoint=127), min_size=1, max_size=10),
    st.text(alphabet=st.characters(whitelist_categories=("Ll",), max_codepoint=127), min_size=1, max_size=10),
    st.text(alphabet=st.characters(whitelist_categories=("Ll",), max_codepoint=127), min_size=1, max_size=10),
)
@settings(max_examples=30, deadline=None)
def test_name_parse_roundtrip(o, d, org):
    n = CHName(o, d, org)
    assert CHName.parse(str(n)) == n


# ----------------------------------------------------------------------
# Database
# ----------------------------------------------------------------------
def test_database_crud():
    db = PropertyDatabase()
    name = CHName.parse("printer:hcs:uw")
    db.register(name, {"address": b"\x0a\x00\x00\x01", "queue": b"lp0"})
    assert db.retrieve(name, "address") == b"\x0a\x00\x00\x01"
    assert db.retrieve(name, "queue") == b"lp0"
    with pytest.raises(NoSuchProperty):
        db.retrieve(name, "owner")
    with pytest.raises(NoSuchObject):
        db.retrieve(CHName.parse("ghost:hcs:uw"), "address")


def test_database_validation():
    db = PropertyDatabase()
    with pytest.raises(ValueError):
        db.register(CHName.parse("a:b:c"), {})
    with pytest.raises(TypeError):
        db.register(CHName.parse("a:b:c"), {"p": "not bytes"})


# ----------------------------------------------------------------------
# Credentials
# ----------------------------------------------------------------------
def test_credential_verification():
    store = CredentialStore()
    store.enroll("schwartz", "sosp87")
    assert store.verify(Credentials("schwartz", "sosp87"))
    assert not store.verify(Credentials("schwartz", "wrong"))
    assert not store.verify(Credentials("unknown", "sosp87"))
    assert not store.verify(None)
    with pytest.raises(ValueError):
        store.enroll("", "x")


# ----------------------------------------------------------------------
# Client/server end-to-end
# ----------------------------------------------------------------------
@pytest.fixture
def ch_deployment():
    env = Environment(seed=5)
    net = Internetwork(env)
    segment = net.add_segment(
        latency=ConstantLatency(CAL.wire_base_ms, CAL.wire_per_byte_ms)
    )
    client_host = net.add_host("dlion", segment, system_type="xde")
    server_host = net.add_host("chserver", segment, system_type="xde")
    server = ClearinghouseServer(server_host)
    server.credentials.enroll("hcs", "secret")
    server.database.register(
        CHName.parse("fiji:hcs:uw"), {"address": bytes([128, 95, 1, 4])}
    )
    ep = server.listen()
    # Courier runs over a stream protocol (SPP); use the TCP-like one.
    transport = StreamTransport(net)
    client = ClearinghouseClient(
        client_host, transport, ep, Credentials("hcs", "secret")
    )
    return env, net, client, server


def run(env, gen):
    return env.run(until=env.process(gen))


def test_retrieve_roundtrip(ch_deployment):
    env, net, client, server = ch_deployment
    address = run(env, client.lookup_address("fiji:hcs:uw"))
    assert address == "128.95.1.4"


def test_lookup_costs_156ms(ch_deployment):
    """'a Clearinghouse name to address lookup takes 156 msec.'"""
    env, net, client, server = ch_deployment
    start = env.now
    run(env, client.lookup_address("fiji:hcs:uw"))
    assert env.now - start == pytest.approx(156.0, rel=0.02)


def test_clearinghouse_much_slower_than_bind(ch_deployment):
    """The 27 vs 156 ms gap drives the paper's caching argument."""
    env, net, client, server = ch_deployment
    start = env.now
    run(env, client.lookup_address("fiji:hcs:uw"))
    assert (env.now - start) / 27.0 > 5.0


def test_bad_credentials_rejected_after_auth_cost(ch_deployment):
    env, net, client, server = ch_deployment
    client.credentials = Credentials("hcs", "wrong")
    start = env.now

    def scenario():
        with pytest.raises(AuthenticationFailed):
            yield from client.retrieve("fiji:hcs:uw", "address")
        return env.now - start

    elapsed = run(env, scenario())
    # Authentication cost is paid even on failure.
    assert elapsed >= CAL.ch_auth_cpu_ms + CAL.ch_auth_disk_ms


def test_missing_object_and_property(ch_deployment):
    env, net, client, server = ch_deployment

    def scenario():
        with pytest.raises(NoSuchObject):
            yield from client.retrieve("ghost:hcs:uw", "address")
        with pytest.raises(NoSuchProperty):
            yield from client.retrieve("fiji:hcs:uw", "nope")
        return "done"

    assert run(env, scenario()) == "done"


def test_register_then_retrieve(ch_deployment):
    env, net, client, server = ch_deployment
    run(env, client.register("printer:hcs:uw", "address", bytes([10, 0, 0, 7])))
    assert run(env, client.lookup_address("printer:hcs:uw")) == "10.0.0.7"


def test_every_access_authenticates(ch_deployment):
    """Auth disk traffic scales with access count, even repeated ones."""
    env, net, client, server = ch_deployment
    for _ in range(3):
        run(env, client.lookup_address("fiji:hcs:uw"))
    assert env.stats.counters()["ch.clearinghouse@chserver.retrieves"] == 3
